package convert

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
)

// BenchmarkConvert materialises the paper's n = 1 construction (2,367,216
// transitions as converted) with the plain §7.3 conversion and with the
// full shrink pipeline (92,648 transitions).
func BenchmarkConvert(b *testing.B) {
	c1, err := core.New(1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := compile.Compile(c1.Program)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := Convert(m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(res.Protocol.Transitions)), "transitions")
		}
	})
	b.Run("optimized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, _, err := Optimize(m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(res.Protocol.Transitions)), "transitions")
		}
	})
}
