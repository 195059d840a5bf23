package shamir

import (
	"math/rand"
	"testing"
)

// BenchmarkFinishSweep times the reveal check one processor of the n=12
// complete-graph election runs when the last reveal arrives: for each of
// the n owners, a consistency check of the owner's n shares and the
// reconstruction of its secret. "public" goes through Consistent and
// Reconstruct on share slices, as the election did before it had a Basis;
// "basis" is the election's path, on value rows with precomputed
// coefficients.
func BenchmarkFinishSweep(b *testing.B) {
	const n, t = 12, 6
	rng := rand.New(rand.NewSource(1))
	rows := make([][]Share, n)
	vals := make([][]int64, n)
	for o := range rows {
		rows[o], _ = Split(int64(o), t, n, rng)
		vals[o] = make([]int64, n)
		for i, s := range rows[o] {
			vals[o][i] = s.Value
		}
	}
	b.Run("public", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, row := range rows {
				shares := make([]Share, n)
				copy(shares, row)
				if ok, err := Consistent(shares, t); err != nil || !ok {
					b.Fatal("honest row inconsistent")
				}
				if _, err := Reconstruct(shares[:t]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("basis", func(b *testing.B) {
		basis, err := NewBasis(n, t)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, row := range vals {
				if !basis.Consistent(row) {
					b.Fatal("honest row inconsistent")
				}
				basis.Secret(row)
			}
		}
	})
}
