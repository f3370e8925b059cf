package device

import "testing"

func BenchmarkMOSEval(b *testing.B) {
	m := nmos()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval(m, 1.5, 1.0, 0, 0)
	}
}
