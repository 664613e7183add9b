package tensor

import (
	"sync"
	"testing"
)

func TestWorkspaceGetReturnsZeroedRightShape(t *testing.T) {
	m := GetMatrix(3, 5)
	if m.Rows != 3 || m.Cols != 5 || len(m.Data) != 15 {
		t.Fatalf("bad shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Fill(7)
	PutMatrix(m)

	// A recycled matrix must come back zeroed even after being dirtied.
	n := GetMatrix(2, 6)
	for i, v := range n.Data {
		if v != 0 {
			t.Fatalf("recycled matrix not zeroed at %d: %v", i, v)
		}
	}
	PutMatrix(n)
}

func TestWorkspaceReusesBacking(t *testing.T) {
	// Same size class (100 -> 128) must reuse the same backing array.
	// sync.Pool may drop entries under GC pressure (and drops Puts at
	// random when the race detector is on), so each attempt performs its
	// own Put and we accept any successful reuse.
	for i := 0; i < 50; i++ {
		m := GetMatrix(10, 10)
		data := &m.Data[:1][0]
		PutMatrix(m)
		n := GetMatrix(11, 11) // 121 -> same class as 100
		reused := &n.Data[:1][0] == data
		PutMatrix(n)
		if reused {
			return
		}
	}
	t.Fatal("workspace never reused the returned backing array")
}

func TestWorkspaceStatsProgress(t *testing.T) {
	before := ReadWorkspaceStats()
	m := GetMatrix(4, 4)
	PutMatrix(m)
	GetMatrix(4, 4) // likely a hit; at minimum a get
	after := ReadWorkspaceStats()
	if after.Gets < before.Gets+2 {
		t.Fatalf("Gets did not advance: %+v -> %+v", before, after)
	}
	if after.Puts < before.Puts+1 {
		t.Fatalf("Puts did not advance: %+v -> %+v", before, after)
	}
}

func TestWorkspaceOversizedFallsThrough(t *testing.T) {
	// Shapes beyond the largest size class still work; they are simply
	// not pooled.
	m := GetMatrix(1, 1<<25+1)
	if len(m.Data) != 1<<25+1 {
		t.Fatalf("oversized Get len %d", len(m.Data))
	}
	PutMatrix(m)
}

// TestWorkspaceConcurrentSmoke exercises the arena from many goroutines
// (meaningful under -race: the tensor package is in the race suite).
func TestWorkspaceConcurrentSmoke(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lent []*Matrix
			for i := 0; i < 200; i++ {
				m := GetMatrix(g+1, i%17+1)
				m.Fill(float64(g))
				lent = append(lent, m)
				if i%5 == 0 {
					for _, m := range lent {
						PutMatrix(m)
					}
					lent = lent[:0]
				}
			}
			for _, m := range lent {
				PutMatrix(m)
			}
		}(g)
	}
	wg.Wait()
}

func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	// Warm the class.
	for i := 0; i < 4; i++ {
		PutMatrix(GetMatrix(32, 32))
	}
	if n := testing.AllocsPerRun(100, func() {
		m := GetMatrix(32, 32)
		PutMatrix(m)
	}); n > 0.5 {
		t.Fatalf("workspace get/put allocates %v per run, want ~0", n)
	}
}
