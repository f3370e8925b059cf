// Package pipesyn reproduces "Designer-Driven Topology Optimization for
// Pipelined Analog to Digital Converters" (Chien, Chen, Lou, Ma, Rutenbar,
// Mukherjee — DATE 2005) as a self-contained Go library: a circuit
// simulator (DC/AC/transient MNA), a DPI/SFG + Mason's-rule symbolic
// analyzer, a square-law 0.25 µm device model, switched-capacitor MDAC and
// flash sub-ADC generators, a simulated-annealing cell synthesizer, a
// behavioral pipelined-ADC verifier, and the designer-driven topology
// optimization flow that ties them together.
//
// The public surface lives under internal/ packages by design — this
// module is an experiment harness; the binaries in cmd/, the programs in
// examples/ and pipebench in bench/ are the supported entry points:
//
//	cmd/adcsyn    full topology optimization for a target resolution
//	cmd/adcsynd   the same studies served over HTTP, journaled, clusterable
//	cmd/figgen    regenerate every figure of the paper
//	cmd/spicelet  the underlying mini circuit simulator as a CLI
//	examples/*    five runnable walkthroughs of the flow's parts
//	bench/        pipebench, the served-path benchmark (its own module)
//
// reach_test.go holds the tree to them: a non-test function that none of
// them links fails the tests.
//
// The benchmark suite at the repository root (bench_test.go) regenerates
// each of the paper's figures and records the headline numbers; see
// EXPERIMENTS.md for paper-versus-measured notes.
package pipesyn
