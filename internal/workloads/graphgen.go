package workloads

import (
	"fmt"
	"math/rand"
)

// Dataset describes one of the paper's SNAP graphs. The generator
// synthesizes a graph with the same vertex and edge counts and a similarly
// skewed (social-network-like) degree distribution, since the original
// SNAP files cannot be redistributed here; BFS cost depends on |V|, |E|,
// and the degree skew, which the R-MAT process reproduces.
type Dataset struct {
	Name     string
	Vertices int
	Edges    int
}

// The paper's Table IV datasets.
var (
	Epinions1    = Dataset{Name: "Epinions1", Vertices: 76_000, Edges: 509_000}
	Pokec        = Dataset{Name: "Pokec", Vertices: 1_633_000, Edges: 30_623_000}
	LiveJournal1 = Dataset{Name: "LiveJournal1", Vertices: 4_848_000, Edges: 68_994_000}
)

// Table4Datasets lists the Table IV datasets in paper order.
var Table4Datasets = []Dataset{Epinions1, Pokec, LiveJournal1}

// Scale returns the dataset shrunk by factor (for CI-speed runs); both
// counts scale together so per-vertex/per-edge cost ratios are preserved.
func (d Dataset) Scale(factor int) Dataset {
	if factor <= 1 {
		return d
	}
	return Dataset{
		Name:     fmt.Sprintf("%s/%d", d.Name, factor),
		Vertices: max(d.Vertices/factor, 16),
		Edges:    max(d.Edges/factor, 64),
	}
}

// CSR is a graph in compressed-sparse-row form, the layout the BFS kernels
// traverse in (simulated) memory.
type CSR struct {
	Offsets []uint64 // len V+1, indices into Targets
	Targets []uint64 // len E, destination vertex ids
}

// NumVertices returns |V|.
func (g *CSR) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns |E|.
func (g *CSR) NumEdges() int { return len(g.Targets) }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v int) int { return int(g.Offsets[v+1] - g.Offsets[v]) }

// R-MAT's Graph500 partition probabilities: top-left, top-right and
// bottom-left quadrant; bottom-right takes the rest.
const rmatA, rmatB, rmatC = 0.57, 0.19, 0.19

// The R-MAT thresholds: GenerateRMAT picks each quadrant as a switch on
// rand.Rand.Float64 would, without floating point. Float64 returns
// float64(x)/2^63 for x = Int63(), redrawing when that rounds to 1.
// float64(x) never decreases as x grows, so Float64() < p holds exactly
// when x is below rmatThreshold(p), the smallest x with
// float64(x)/2^63 >= p; comparing x with these integers picks the
// quadrant the float switch picked, from the same draws.
var (
	rmatT1     = rmatThreshold(rmatA)
	rmatT2     = rmatThreshold(rmatA + rmatB)
	rmatT3     = rmatThreshold(rmatA + rmatB + rmatC)
	rmatRedraw = rmatThreshold(1)
)

// rmatThreshold returns the smallest x in [0, 2^63] with
// float64(x)/2^63 >= p, by binary search.
func rmatThreshold(p float64) int64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return int64(lo)
}

// above returns 1 when x >= t and 0 otherwise, without a branch; x and t
// lie in [0, 2^63), so t-1-x cannot overflow and is negative exactly when
// x >= t.
func above(x, t int64) int64 { return int64(uint64(t-1-x) >> 63) }

// GenerateRMAT synthesizes a directed graph with the R-MAT/Kronecker
// recursive partition probabilities used by Graph500 (a=0.57, b=0.19,
// c=0.19), producing the heavy-tailed degree distribution of social
// networks. Vertex 0 is made reachable-rich: generated sources are
// additionally wired so BFS from 0 covers most of the graph (each vertex
// gets at least one incoming edge from a lower-numbered vertex).
//
// The generator owns its RNG: all randomness flows from the seed argument
// through a locally-constructed rand.Rand, never package-global state, so
// concurrent generation on scheduler workers is safe and a given
// (Dataset, seed) pair always yields the same graph. Callers running
// several generations in one sweep should hand each a seed derived via
// runner.DeriveSeed so the streams are independent.
func GenerateRMAT(d Dataset, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	v := d.Vertices
	// scale = ceil(log2(v))
	scale := 0
	for 1<<scale < v {
		scale++
	}

	type edge struct{ src, dst uint32 }
	edges := make([]edge, 0, d.Edges)

	// Connectivity backbone: vertex i receives an edge from a random
	// earlier vertex, so BFS from 0 reaches everything. These count
	// toward the edge budget.
	for i := 1; i < v; i++ {
		src := rng.Intn(i)
		edges = append(edges, edge{uint32(src), uint32(i)})
	}

	for len(edges) < d.Edges {
		var src, dst int64
		for range scale {
			// The quadrant is how many thresholds x reaches: 0 is top-left
			// (no bit), 1 sets dst's bit, 2 src's and 3 both.
			x := rng.Int63()
			for x >= rmatRedraw {
				x = rng.Int63()
			}
			q := above(x, rmatT1) + above(x, rmatT2) + above(x, rmatT3)
			src = src<<1 | q>>1
			dst = dst<<1 | q&1
		}
		edges = append(edges, edge{uint32(int(src) % v), uint32(int(dst) % v)})
	}

	// Build CSR with counting sort by source.
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

// ReferenceBFS is a plain Go BFS used to cross-check the simulated
// kernels: it returns the number of vertices reachable from src and the
// XOR of their ids (an order-independent checksum).
func ReferenceBFS(g *CSR, src int) (visited int, checksum uint64) {
	v := g.NumVertices()
	seen := make([]bool, v)
	queue := make([]int, 0, v)
	seen[src] = true
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		visited++
		checksum ^= uint64(u)
		for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
			t := int(g.Targets[i])
			if !seen[t] {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	return visited, checksum
}
