package pcs

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/curve"
)

// basisOf returns the commitment basis a scheme's Commit runs against.
func basisOf(s Scheme) []curve.Affine {
	switch s := s.(type) {
	case *KZGScheme:
		return s.powers
	case *IPAScheme:
		return s.basis
	}
	panic("pcs: unknown scheme")
}

// TestCommitTableMatchesPlainMSM pins the routing invariant: a commitment
// served by the fixed-base table is the same group element (and therefore
// the same proof bytes) as the generic-kernel MSM over the same basis, at
// sizes on both sides of the commitTableMinLen gate.
func TestCommitTableMatchesPlainMSM(t *testing.T) {
	ResetCommitTables()
	for _, s := range schemes(t, 256) {
		for _, n := range []int{1, commitTableMinLen - 1, commitTableMinLen, 200, 256} {
			p := randPoly(n)
			warm := s.Commit(p, nil)
			plain := curve.MSM(basisOf(s)[:n], p).ToAffine()
			if !warm.Equal(&plain) {
				t.Fatalf("%s n=%d: table commitment differs from plain MSM", s.Backend(), n)
			}
		}
	}
}

// TestConcurrentCommitSharedTable hammers one lazily-built table from many
// goroutines so `make race` covers the double-checked build in
// commitTableCache.get: every commitment must match the generic kernel and
// the table must be built exactly once per backend.
func TestConcurrentCommitSharedTable(t *testing.T) {
	ResetCommitTables()
	before := SetupWorkSnapshot()
	for _, s := range schemes(t, 128) {
		p := randPoly(128)
		want := curve.MSM(basisOf(s)[:len(p)], p).ToAffine()

		const goroutines = 8
		got := make([]curve.Affine, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					got[g] = s.Commit(p, nil)
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			if !got[g].Equal(&want) {
				t.Fatalf("%s: concurrent commitment %d differs from plain MSM", s.Backend(), g)
			}
		}
	}
	d := SetupWorkSnapshot().Sub(before)
	if d.CommitTableBuilds != 2 {
		t.Fatalf("table builds = %d, want exactly 1 per backend", d.CommitTableBuilds)
	}
	if d.CommitTableHits == 0 {
		t.Fatal("no commitments were served by the tables")
	}
}

// TestCommitTableSetupWorkAccounting checks the /stats contract: builds are
// setup work (IsZero false), hits are the amortized warm path (IsZero true).
func TestCommitTableSetupWorkAccounting(t *testing.T) {
	s := NewKZG(128)
	p := randPoly(128)
	ResetCommitTables()
	before := SetupWorkSnapshot()
	s.Commit(p, nil)
	afterBuild := SetupWorkSnapshot()
	d := afterBuild.Sub(before)
	if d.CommitTableBuilds != 1 || d.CommitTableHits != 1 {
		t.Fatalf("first commit: builds=%d hits=%d, want 1/1", d.CommitTableBuilds, d.CommitTableHits)
	}
	if d.IsZero() {
		t.Fatal("a table build must count as setup work")
	}
	s.Commit(p, nil)
	warm := SetupWorkSnapshot().Sub(afterBuild)
	if warm.CommitTableBuilds != 0 || warm.CommitTableHits != 1 {
		t.Fatalf("warm commit: builds=%d hits=%d, want 0/1", warm.CommitTableBuilds, warm.CommitTableHits)
	}
	if !warm.IsZero() {
		t.Fatal("a table hit must not count as setup work")
	}
}

// BenchmarkCommit measures both backends' commitment path cold (table built
// per iteration) and warm (table amortized — the steady state for a loaded
// key). Sizes above 2^12 are skipped in -short mode to keep bench-smoke
// fast. Sizes run ascending so the cold build at size n is over an n-point
// basis, matching a key loaded at that size.
func BenchmarkCommit(b *testing.B) {
	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	for _, backend := range []Backend{KZG, IPA} {
		for _, n := range sizes {
			if testing.Short() && n > 1<<12 {
				continue
			}
			s, err := New(backend, n)
			if err != nil {
				b.Fatal(err)
			}
			p := randPoly(n)
			k := 0
			for 1<<k < n {
				k++
			}
			b.Run(fmt.Sprintf("%s/2^%d/cold", backend, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ResetCommitTables()
					s.Commit(p, nil)
				}
			})
			b.Run(fmt.Sprintf("%s/2^%d/warm", backend, k), func(b *testing.B) {
				s.Commit(p, nil) // ensure the table is built outside the timed loop
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Commit(p, nil)
				}
			})
		}
	}
}

// BenchmarkCommitNoTable is the baseline the warm path is compared against:
// the same commitment as a generic GLV MSM over the basis.
func BenchmarkCommitNoTable(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		basis := NewKZG(n).powers[:n]
		p := randPoly(n)
		k := 0
		for 1<<k < n {
			k++
		}
		b.Run(fmt.Sprintf("KZG/2^%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				curve.MSM(basis, p)
			}
		})
	}
}
