package platform

import (
	"errors"
	"testing"

	"flick/internal/cpu"
	"flick/internal/sim"
)

// spuriousMachine builds a two-board machine injecting cpu.spurious at
// even odds, so every Step's roll is a coin flip.
func spuriousMachine(t *testing.T) *Machine {
	t.Helper()
	p := DefaultParams()
	p.Boards = 2
	p.Faults = "cpu.spurious=0.5"
	p.FaultSeed = 7
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Env.Close)
	return m
}

// spuriousPattern steps c n times from an unmapped PC and records which
// steps raised an injected ghost fault. Every Step polls the core's
// spurious roll exactly once before fetching, and with no fault handler
// installed each Step returns its fault, so the pattern is the core's
// roll sequence.
func spuriousPattern(m *Machine, c *cpu.Core, n int) []bool {
	c.SetContext(&cpu.Context{PC: 0x40})
	out := make([]bool, 0, n)
	m.Env.Spawn("step-"+c.Name(), func(p *sim.Proc) {
		for range n {
			var f *cpu.Fault
			out = append(out, errors.As(c.Step(p), &f) && f.Spurious)
		}
	})
	m.Env.Run()
	return out
}

// TestSpuriousStreamsPerCore pins cpu.spurious's per-core streams: how
// many instructions board 1's core runs must not shift board 0's rolls.
func TestSpuriousStreamsPerCore(t *testing.T) {
	const n = 64
	quiet := spuriousMachine(t)
	want := spuriousPattern(quiet, quiet.Boards[0].NxP, n)

	busy := spuriousMachine(t)
	b1 := spuriousPattern(busy, busy.Boards[1].NxP, 3*n)
	got := spuriousPattern(busy, busy.Boards[0].NxP, n)

	fired := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("board 0 roll %d = %v after board 1 ran %d steps, want %v (streams shared)", i, got[i], len(b1), want[i])
		}
		if want[i] {
			fired++
		}
	}
	if fired == 0 || fired == n {
		t.Fatalf("%d of %d rolls fired at p=0.5: pattern is degenerate", fired, n)
	}
	same := true
	for i := range want {
		same = same && b1[i] == want[i]
	}
	if same {
		t.Error("board 1's first rolls equal board 0's: cores draw one sequence")
	}
}
