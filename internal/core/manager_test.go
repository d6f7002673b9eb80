package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestManagerRemovalKeepsOrder removes tracked connections in random order,
// interleaved with additions, and checks that Connections always lists the
// survivors in the order they were added — holes and compaction are
// invisible — and that a second removal of the same connection is a no-op.
func TestManagerRemovalKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := &Manager{tokens: NewTokenTable()}
	var want []*Connection
	for round := 0; round < 50; round++ {
		for i := rng.Intn(8); i > 0; i-- {
			c := &Connection{}
			m.addConnection(c)
			want = append(want, c)
		}
		for i := rng.Intn(8); i > 0 && len(want) > 0; i-- {
			j := rng.Intn(len(want))
			c := want[j]
			m.removeConnection(c)
			m.removeConnection(c)
			want = slices.Delete(want, j, j+1)
		}
		if m.holes > 0 && 2*m.holes > len(m.conns) {
			t.Fatalf("round %d: %d holes in %d slots were not compacted", round, m.holes, len(m.conns))
		}
		if round%3 == 0 {
			if got := m.Connections(); !slices.Equal(got, want) {
				t.Fatalf("round %d: Connections lists %d connections out of order or wrong (want %d)", round, len(got), len(want))
			}
		}
	}
}
