package machine

import (
	"math"
	"strings"
	"testing"
)

func TestCoriKNLMatchesTable1(t *testing.T) {
	m := CoriKNL()
	if m.Alpha != 2e-6 {
		t.Fatalf("alpha = %g, Table 1 says 2µs", m.Alpha)
	}
	if bw := m.BandwidthBytes(); math.Abs(bw-6e9) > 1 {
		t.Fatalf("bandwidth = %g B/s, Table 1 says 6 GB/s", bw)
	}
	if m.Beta != WordBytes/6e9 {
		t.Fatalf("beta = %g, want %g", m.Beta, WordBytes/6e9)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNonPhysical(t *testing.T) {
	cases := []Machine{
		{Name: "negAlpha", Alpha: -1, Beta: 1e-9, PeakFlops: 1},
		{Name: "zeroBeta", Alpha: 1e-6, Beta: 0, PeakFlops: 1},
		{Name: "negPeak", Alpha: 1e-6, Beta: 1e-9, PeakFlops: -5},
		// NaN passes every sign check and an overflowed β is +Inf.
		{Name: "NaNAlpha", Alpha: math.NaN(), Beta: 1e-9, PeakFlops: 1},
		{Name: "infAlpha", Alpha: math.Inf(1), Beta: 1e-9, PeakFlops: 1},
		{Name: "NaNBeta", Alpha: 1e-6, Beta: math.NaN(), PeakFlops: 1},
		{Name: "infBeta", Alpha: 1e-6, Beta: math.Inf(1), PeakFlops: 1},
		{Name: "NaNPeak", Alpha: 1e-6, Beta: 1e-9, PeakFlops: math.NaN()},
		{Name: "infPeak", Alpha: 1e-6, Beta: 1e-9, PeakFlops: math.Inf(1)},
	}
	for _, m := range cases {
		if m.Validate() == nil {
			t.Fatalf("%s should fail validation", m.Name)
		}
	}
}

func TestWordBytesIsFloat32(t *testing.T) {
	// The cost accounting is in float32 words (deep-learning practice);
	// changing this silently rescales every bandwidth term.
	if WordBytes != 4 {
		t.Fatalf("WordBytes = %d, want 4", WordBytes)
	}
}

func TestStringRendersTable1Fields(t *testing.T) {
	s := CoriKNL().String()
	for _, want := range []string{"Cori-KNL", "GB/s", "TFLOP/s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
