package workloads

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// generateRMATFloat is GenerateRMAT with the quadrant drawn by a switch on
// rand.Float64 per bit, as it was written before the integer sampler. It
// is the reference the integer sampler must reproduce bit for bit.
func generateRMATFloat(d Dataset, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	v := d.Vertices
	scale := 0
	for 1<<scale < v {
		scale++
	}

	type edge struct{ src, dst uint32 }
	edges := make([]edge, 0, d.Edges)
	for i := 1; i < v; i++ {
		src := rng.Intn(i)
		edges = append(edges, edge{uint32(src), uint32(i)})
	}

	const a, b, c = 0.57, 0.19, 0.19
	for len(edges) < d.Edges {
		var src, dst int
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: neither bit set
			case r < a+b:
				dst |= 1 << bit
			case r < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		src %= v
		dst %= v
		edges = append(edges, edge{uint32(src), uint32(dst)})
	}

	offsets := make([]uint64, v+1)
	for _, e := range edges {
		offsets[e.src+1]++
	}
	for i := 1; i <= v; i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]uint64, len(edges))
	cursor := make([]uint64, v)
	for _, e := range edges {
		pos := offsets[e.src] + cursor[e.src]
		cursor[e.src]++
		targets[pos] = uint64(e.dst)
	}
	return &CSR{Offsets: offsets, Targets: targets}
}

// TestRMATMatchesFloatReference: the integer sampler yields the float
// switch's graphs exactly, for every Table IV dataset at Quick scale (the
// sizes flicksim runs by default) and several seeds. The largest dataset
// (17 M draws per graph) runs one seed, and -short keeps one seed
// throughout, so a race-detector run stays short.
func TestRMATMatchesFloatReference(t *testing.T) {
	for i, d := range Table4Datasets {
		ds := d.Scale(64)
		seeds := []int64{1, 7, 0x5eed}
		if testing.Short() || i == len(Table4Datasets)-1 {
			seeds = seeds[:1]
		}
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", ds.Name, seed), func(t *testing.T) {
				got, want := GenerateRMAT(ds, seed), generateRMATFloat(ds, seed)
				if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Targets, want.Targets) {
					t.Fatalf("integer sampler's CSR differs from the float reference")
				}
			})
		}
	}
}

// TestRMATThresholdsAreExact checks each threshold T against the float it
// replaces: x = T-1 still maps below p and x = T reaches it, so comparing
// Int63 draws with T decides exactly what comparing Float64 with p did.
func TestRMATThresholdsAreExact(t *testing.T) {
	const a, b, c = 0.57, 0.19, 0.19 // the reference switch's constants
	for _, tc := range []struct {
		name string
		t    int64
		p    float64
	}{
		{"a", rmatT1, a},
		{"a+b", rmatT2, a + b},
		{"a+b+c", rmatT3, a + b + c},
		{"redraw", rmatRedraw, 1},
	} {
		below, at := float64(tc.t-1)/(1<<63), float64(tc.t)/(1<<63)
		if !(below < tc.p && tc.p <= at) {
			t.Errorf("%s: threshold %#x: float64(T-1)/2^63 = %v, float64(T)/2^63 = %v, want %v between them",
				tc.name, tc.t, below, at, tc.p)
		}
	}
	if !(0 < rmatT1 && rmatT1 < rmatT2 && rmatT2 < rmatT3 && rmatT3 < rmatRedraw) {
		t.Errorf("thresholds out of order: %#x %#x %#x %#x", rmatT1, rmatT2, rmatT3, rmatRedraw)
	}
	for _, x := range []int64{0, rmatT1 - 1, rmatT1, rmatT3, 1<<63 - 1} {
		for _, th := range []int64{rmatT1, rmatT2, rmatT3} {
			if want := x >= th; (above(x, th) == 1) != want || above(x, th)>>1 != 0 {
				t.Errorf("above(%#x, %#x) = %d, want %v", x, th, above(x, th), want)
			}
		}
	}
}
