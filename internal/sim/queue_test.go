package sim

import (
	"math/rand"
	"testing"
)

// refQueue is the brute-force reference the two-level queue is checked
// against: a flat slice with O(n) minimum selection under the same
// (at, seq) order. Too slow for the engine, trivially correct.
type refQueue []event

func (r *refQueue) push(ev event) { *r = append(*r, ev) }

func (r *refQueue) min() *event {
	q := *r
	min := 0
	for i := 1; i < len(q); i++ {
		if evLess(&q[i], &q[min]) {
			min = i
		}
	}
	return &q[min]
}

func (r *refQueue) pop() event {
	q := *r
	min := 0
	for i := 1; i < len(q); i++ {
		if evLess(&q[i], &q[min]) {
			min = i
		}
	}
	ev := q[min]
	q[min] = q[len(q)-1]
	*r = q[:len(q)-1]
	return ev
}

// TestQueueMatchesReferenceOrdering drives random Push/Head/Pop traffic
// through the calendar queue and the reference queue in lockstep, across
// time distributions chosen to exercise every area: dense ties in one
// bucket, spread across the ring, far-future overflow (forcing
// migrations), and below-base pushes after partial drains (forcing the
// early area). Any divergence in pop order, head, or length fails.
func TestQueueMatchesReferenceOrdering(t *testing.T) {
	distributions := []struct {
		name string
		span int64 // time range the pushes draw from, relative to a cursor
	}{
		{"dense-ties", 64},                  // many events share a bucket and exact times
		{"one-bucket", int64(qGranule) - 1}, // single-granule clustering
		{"ring", int64(qRingSpan) - 1},      // spread across the ring window
		{"overflow", 4 * int64(qRingSpan)},  // most pushes land in the overflow heap
		{"far-future", int64(1) << 40},      // essentially all overflow, sparse ring
	}
	for _, dist := range distributions {
		t.Run(dist.name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var q eventQueue
				var ref refQueue
				var seq uint64
				cursor := Time(rng.Int63n(1 << 30))
				var lastAt Time
				for op := 0; op < 4000; op++ {
					switch {
					case q.Len() == 0 || rng.Intn(3) != 0:
						at := cursor.Add(Duration(rng.Int63n(dist.span + 1)))
						if rng.Intn(16) == 0 {
							// Repeat the previous time with a fresh seq: the
							// exact-tie case the (at, seq) order disambiguates.
							at = lastAt
						}
						if q.Len() > 0 && rng.Intn(16) == 0 {
							// Below the current head — and usually below the
							// ring base after a rebase — forcing the early area.
							h := q.Head().at
							at = h - Time(rng.Int63n(int64(h)+1))
						}
						lastAt = at
						ev := event{at: at, seq: seq}
						seq++
						q.Push(ev)
						ref.push(ev)
					case rng.Intn(4) == 0:
						// Drain completely: the next push re-anchors the window.
						for q.Len() > 0 {
							got, want := q.Pop(), ref.pop()
							if got.at != want.at || got.seq != want.seq {
								t.Fatalf("seed %d op %d drain: popped (%d,%d), reference (%d,%d)",
									seed, op, got.at, got.seq, want.at, want.seq)
							}
						}
						cursor = cursor.Add(Duration(rng.Int63n(int64(1) << 35)))
					default:
						h := q.Head()
						if rm := ref.min(); h.at != rm.at || h.seq != rm.seq {
							t.Fatalf("seed %d op %d: head (%d,%d), reference (%d,%d)",
								seed, op, h.at, h.seq, rm.at, rm.seq)
						}
						got, want := q.Pop(), ref.pop()
						if got.at != want.at || got.seq != want.seq {
							t.Fatalf("seed %d op %d: popped (%d,%d), reference (%d,%d)",
								seed, op, got.at, got.seq, want.at, want.seq)
						}
						// Pops never advance the cursor past the popped event:
						// later pushes may still land at or below it, like a
						// Sleep scheduled from the popped process.
						cursor = got.at
					}
					if q.Len() != len(ref) {
						t.Fatalf("seed %d op %d: Len %d, reference %d", seed, op, q.Len(), len(ref))
					}
				}
				for q.Len() > 0 {
					got, want := q.Pop(), ref.pop()
					if got.at != want.at || got.seq != want.seq {
						t.Fatalf("seed %d final drain: popped (%d,%d), reference (%d,%d)",
							seed, got.at, got.seq, want.at, want.seq)
					}
				}
			}
		})
	}
}

// TestQueueEarlyArea pins the below-base path deterministically: anchoring
// the window high and then pushing lower events must still pop in strict
// (at, seq) order, including a tie inside the early area.
func TestQueueEarlyArea(t *testing.T) {
	var q eventQueue
	q.Push(event{at: 1 << 30, seq: 10}) // anchors base ≈ 2^30
	q.Push(event{at: 5, seq: 11})       // below base: early
	q.Push(event{at: 5, seq: 12})       // early tie, later seq
	q.Push(event{at: 3, seq: 13})       // earlier still
	want := []struct {
		at  Time
		seq uint64
	}{{3, 13}, {5, 11}, {5, 12}, {1 << 30, 10}}
	for i, w := range want {
		if h := q.Head(); h.at != w.at || h.seq != w.seq {
			t.Fatalf("head %d: (%d,%d), want (%d,%d)", i, h.at, h.seq, w.at, w.seq)
		}
		if ev := q.Pop(); ev.at != w.at || ev.seq != w.seq {
			t.Fatalf("pop %d: (%d,%d), want (%d,%d)", i, ev.at, ev.seq, w.at, w.seq)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after draining: %d", q.Len())
	}
}

// TestQueueOverflowMigration pins the window rotation: events pushed far
// beyond the ring span sit in the overflow heap until the ring drains,
// then migrate into a re-anchored window and pop in order.
func TestQueueOverflowMigration(t *testing.T) {
	var q eventQueue
	const far = Time(qRingSpan) * 3
	q.Push(event{at: 10, seq: 0})
	q.Push(event{at: far + 7, seq: 1})                 // overflow
	q.Push(event{at: far + 7, seq: 2})                 // overflow tie
	q.Push(event{at: far + 1, seq: 3})                 // overflow, earlier
	q.Push(event{at: far + Time(qRingSpan)*2, seq: 4}) // stays in overflow after one migration
	order := []uint64{0, 3, 1, 2, 4}
	for i, wantSeq := range order {
		if ev := q.Pop(); ev.seq != wantSeq {
			t.Fatalf("pop %d: seq %d, want %d", i, ev.seq, wantSeq)
		}
	}
}
