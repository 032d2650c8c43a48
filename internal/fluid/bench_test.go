package fluid

import (
	"testing"

	"repro/internal/sched"
)

// BenchmarkFluidStepN measures one preferred-size chunk (τ = 1/16) of
// mean-field flow on the epidemic interior, at populations spanning the
// collision kernel's bulk boundary (m = 10⁹ is still tau-leapable,
// m = 10¹² is fluid-only). interactions-equiv/s is the number of uniform
// random-pair interactions the chunks represent per second of wall time —
// the cost of a chunk is population-independent (a fixed number of RK
// stages), so the rate grows ∝ m.
func BenchmarkFluidStepN(b *testing.B) {
	p := epidemic(b)
	for _, bc := range []struct {
		name string
		m    int64
	}{{"m=1e9", 1_000_000_000}, {"m=1e12", 1_000_000_000_000}} {
		b.Run("ode/"+bc.name, func(b *testing.B) {
			ig := NewIntegrator(p)
			c := config(b, p, map[string]int64{"I": bc.m / 4, "S": 3 * bc.m / 4})
			chunk := ig.PreferredChunk(bc.m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ig.StepN(c, chunk)
			}
			b.ReportMetric(float64(b.N)*float64(chunk)/b.Elapsed().Seconds(), "interactions-equiv/s")
		})
	}
	b.Run("langevin/m=1e9", func(b *testing.B) {
		const m = int64(1_000_000_000)
		ig := NewLangevin(p, sched.NewRand(1))
		c := config(b, p, map[string]int64{"I": m / 4, "S": 3 * m / 4})
		chunk := ig.PreferredChunk(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ig.StepN(c, chunk)
		}
		b.ReportMetric(float64(b.N)*float64(chunk)/b.Elapsed().Seconds(), "interactions-equiv/s")
	})
}
