package convert

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/multiset"
	"repro/internal/popprog"
)

// familiesDigest is the SHA-256 of a family table, one little-endian int64
// per state.
func familiesDigest(families []int) string {
	h := sha256.New()
	var num [8]byte
	for _, f := range families {
		binary.LittleEndian.PutUint64(num[:], uint64(int64(f)))
		h.Write(num[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestConvertFingerprintGolden pins the byte identity of the conversion:
// Protocol.Fingerprint of the plain, core and optimized protocols and the
// digest of both family tables, for Figure 1 and the n = 1 construction.
// The ppserved cache's soundness argument relies on these fingerprints, so
// a change to the converter must leave every value here as it is.
func TestConvertFingerprintGolden(t *testing.T) {
	c1, err := core.New(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                       string
		prog                       *popprog.Program
		plain, core, opt           string
		plainFamilies, optFamilies string
	}{
		{
			name:          "figure1",
			prog:          popprog.Figure1Program(),
			plain:         "c4774aba09a12af6fe7f6243a1014838f2d7adb6b8337bf566f647549106c8f6",
			core:          "b30a874b349e89c03d949bed632c5fa7c8b14372c4acdd31029ffec214136107",
			opt:           "649d2a7d3afa5b08b0722f464caa041790771ac7468dfcaf50cfe446cddbcfcc",
			plainFamilies: "275bffe2ffe8ea0d09f2c14fb17c43bdd2bd0cd023dbdf9a7c868ac7594d669c",
			optFamilies:   "21d63cdd5fffcf5a13ba33c34943e85ed9dd6eb0e8f83d638f31d73319a8cac8",
		},
		{
			name:          "czerner n=1",
			prog:          c1.Program,
			plain:         "df6d28cd991b390a3ddbf47fe4506ff71ffddd68d18f834e99c60f535d3830ff",
			core:          "f6eddcb22c4a4ac1826d73dbffabc55a5915fd851b60e506f175b1e4508d00be",
			opt:           "363bf15e77fe766afeed226a4b789b89d5d66a3381882b17c9a9a197bdb6cdb6",
			plainFamilies: "17f03bb50033a5559ed76c0cc9e2f0139351e116770df51888974c0a1d7637d7",
			optFamilies:   "8f07baea76eb302639c7b822df1ba0ba4c29952054ac82ad16395c96ea1eb0f2",
		},
	} {
		m, err := compile.Compile(tc.prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Convert(m)
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := Optimize(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct{ what, got, want string }{
			{"plain fingerprint", res.Protocol.Fingerprint(), tc.plain},
			{"core fingerprint", res.Core.Fingerprint(), tc.core},
			{"optimized fingerprint", opt.Protocol.Fingerprint(), tc.opt},
			{"plain families", familiesDigest(res.Families()), tc.plainFamilies},
			{"optimized families", familiesDigest(opt.Families()), tc.optFamilies},
		} {
			if got.got != got.want {
				t.Errorf("%s: %s %s, want %s", tc.name, got.what, got.got, got.want)
			}
		}
	}
}

// TestElectedDoesNotAllocate pins that Result.Elected, which the election
// experiments call on every scheduler step, counts families without
// allocating, and that it agrees with AgentsPerFamily.
func TestElectedDoesNotAllocate(t *testing.T) {
	res := convertProgram(t, geTwoProgram())
	cfg, err := res.Protocol.InitialConfig(int64(res.NumPointers) + 3)
	if err != nil {
		t.Fatal(err)
	}
	elected, err := res.LeaderConfig(3, 0) // one agent per pointer, plus registers
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*multiset.Multiset{cfg, elected} {
		counts, want := res.AgentsPerFamily(c), true
		for _, n := range counts[:len(counts)-1] {
			want = want && n == 1
		}
		if got := res.Elected(c); got != want {
			t.Fatalf("Elected = %v, family counts %v", got, counts)
		}
		if allocs := testing.AllocsPerRun(100, func() { res.Elected(c) }); allocs != 0 {
			t.Fatalf("Elected allocates %.1f times per call", allocs)
		}
	}
	if !res.Elected(elected) {
		t.Fatal("one initialised agent per pointer is not elected")
	}
}
