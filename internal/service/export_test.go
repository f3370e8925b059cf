package service

// Accessors only the tests use: the daemon renders these counters on
// /metrics and reads them nowhere else.

// Evals reports the total evaluations observed.
func (m *Metrics) Evals() int64 { return m.evalCount.Load() }

// YieldDraws reports the total Monte-Carlo draws observed.
func (m *Metrics) YieldDraws() int64 { return m.yieldPass.Load() + m.yieldFail.Load() }

// RaceRungs reports the racing rungs observed.
func (m *Metrics) RaceRungs() int64 { return m.raceRungs.Load() }
