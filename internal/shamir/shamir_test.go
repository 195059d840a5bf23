package shamir

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitReconstructRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(raw int64, tRaw, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		threshold := int(tRaw)%n + 1
		secret := mod(raw)
		shares, err := Split(secret, threshold, n, rng)
		if err != nil {
			return false
		}
		// Any t-subset reconstructs.
		perm := rng.Perm(n)[:threshold]
		subset := make([]Share, threshold)
		for i, idx := range perm {
			subset[i] = shares[idx]
		}
		got, err := Reconstruct(subset)
		return err == nil && got == secret
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestBelowThresholdRevealsNothing(t *testing.T) {
	// Information-theoretic hiding: t−1 shares are consistent with EVERY
	// candidate secret — there is a degree-(t−1) polynomial through the
	// t−1 points and (0, candidate) for any candidate.
	rng := rand.New(rand.NewSource(2))
	const (
		threshold = 4
		n         = 9
	)
	shares, err := Split(12345, threshold, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	partial := shares[:threshold-1]
	const fresh = int64(100) // an evaluation point outside the partial set
	for _, candidate := range []int64{0, 1, 999999, P - 1} {
		// The unique degree-(t−1) polynomial through the t−1 partial
		// shares and (0, candidate) exists for every candidate; extend
		// the partial view with its value at a fresh point and confirm
		// the extended set reconstructs to the candidate — i.e. the
		// adversary's view rules nothing out.
		base := append(append([]Share{}, partial...), Share{X: 0, Value: candidate})
		v, err := interpolateAt(base, fresh)
		if err != nil {
			t.Fatal(err)
		}
		extended := append(append([]Share{}, partial...), Share{X: fresh, Value: v})
		got, err := Reconstruct(extended)
		if err != nil {
			t.Fatal(err)
		}
		if got != candidate {
			t.Fatalf("t−1 shares + crafted point reconstructed %d, want candidate %d", got, candidate)
		}
	}
}

func TestConsistentDetectsTampering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shares, err := Split(777, 5, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := Consistent(shares, 5)
	if err != nil || !ok {
		t.Fatalf("honest sharing flagged inconsistent: ok=%v err=%v", ok, err)
	}
	shares[9].Value = mod(shares[9].Value + 1)
	ok, err = Consistent(shares, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("tampered share not detected")
	}
}

func TestReconstructValidation(t *testing.T) {
	if _, err := Reconstruct(nil); err == nil {
		t.Error("empty share set accepted")
	}
	if _, err := Reconstruct([]Share{{X: 1, Value: 5}, {X: 1, Value: 6}}); err == nil {
		t.Error("duplicate evaluation points accepted")
	}
	if _, err := Reconstruct([]Share{{X: 0, Value: 5}}); err == nil {
		t.Error("evaluation point 0 accepted (would leak the secret slot)")
	}
}

func TestSplitValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := Split(1, 0, 5, rng); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := Split(1, 6, 5, rng); err == nil {
		t.Error("threshold above n accepted")
	}
	if _, err := Split(P, 2, 5, rng); err == nil {
		t.Error("out-of-field secret accepted")
	}
}

func TestFieldOps(t *testing.T) {
	for _, a := range []int64{1, 2, 12345, P - 1} {
		inv, err := invmod(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := mulmod(a, inv); got != 1 {
			t.Errorf("a·a⁻¹ = %d for a=%d", got, a)
		}
	}
	if _, err := invmod(0); err == nil {
		t.Error("inverse of zero accepted")
	}
	if got := powmod(3, P-1); got != 1 {
		t.Errorf("Fermat check failed: 3^(P−1) = %d", got)
	}
}

// lagrangeAt is the textbook quadratic Lagrange form, one inversion per
// term: the oracle the barycentric and precomputed paths must equal.
func lagrangeAt(t *testing.T, shares []Share, x int64) int64 {
	t.Helper()
	var acc int64
	for i, si := range shares {
		num, den := int64(1), int64(1)
		for j, sj := range shares {
			if i != j {
				num = mulmod(num, mod(x-sj.X))
				den = mulmod(den, mod(si.X-sj.X))
			}
		}
		inv, err := invmod(den)
		if err != nil {
			t.Fatal(err)
		}
		acc = mod(acc + mulmod(si.Value, mulmod(num, inv)))
	}
	return acc
}

func TestBasisMatchesTextbookLagrange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(30)
		threshold := 1 + rng.Intn(n)
		secret := rng.Int63n(P)
		shares, err := Split(secret, threshold, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBasis(n, threshold)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]int64, n)
		for i, s := range shares {
			vals[i] = s.Value
		}
		if got, want := b.Secret(vals), lagrangeAt(t, shares[:threshold], 0); got != want || got != secret {
			t.Fatalf("n=%d t=%d: basis secret %d, textbook %d, shared %d", n, threshold, got, want, secret)
		}
		if !b.Consistent(vals) {
			t.Fatalf("n=%d t=%d: honest shares inconsistent", n, threshold)
		}
		if threshold == n {
			continue // no probe point: every vector is consistent
		}
		idx := rng.Intn(n)
		vals[idx] = mod(vals[idx] + 1 + rng.Int63n(P-1))
		shares[idx].Value = vals[idx]
		public, err := Consistent(shares, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if b.Consistent(vals) || public {
			t.Fatalf("n=%d t=%d: tampered share %d undetected (basis %v, public %v)",
				n, threshold, idx+1, b.Consistent(vals), public)
		}
	}
}

func TestPublicPathMatchesTextbookLagrangeAtArbitraryPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(12)
		coeffs := make([]int64, k)
		for i := range coeffs {
			coeffs[i] = rng.Int63n(P)
		}
		seen := map[int64]bool{}
		shares := make([]Share, 0, k+4)
		for len(shares) < cap(shares) {
			x := 1 + rng.Int63n(P-1)
			if !seen[x] {
				seen[x] = true
				shares = append(shares, Share{X: x, Value: eval(coeffs, x)})
			}
		}
		got, err := Reconstruct(shares[:k])
		if err != nil {
			t.Fatal(err)
		}
		if want := lagrangeAt(t, shares[:k], 0); got != want || got != coeffs[0] {
			t.Fatalf("k=%d: Reconstruct %d, textbook %d, constant term %d", k, got, want, coeffs[0])
		}
		x := rng.Int63n(P)
		if got, err := interpolateAt(shares[:k], x); err != nil || got != lagrangeAt(t, shares[:k], x) {
			t.Fatalf("k=%d: interpolateAt(%d) = %d (err %v), textbook %d", k, x, got, err, lagrangeAt(t, shares[:k], x))
		}
		if ok, err := Consistent(shares, k); err != nil || !ok {
			t.Fatalf("k=%d: points on one polynomial inconsistent (err %v)", k, err)
		}
		shares[k+rng.Intn(4)].Value ^= 1
		if ok, err := Consistent(shares, k); err != nil || ok {
			t.Fatalf("k=%d: tampered probe undetected (err %v)", k, err)
		}
	}
}

func TestValidationErrorsUnchanged(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
		want string
	}{
		{"no shares", func() error { _, err := Reconstruct(nil); return err }, "shamir: no shares"},
		{"point 0", func() error { _, err := Reconstruct([]Share{{X: 2, Value: 1}, {X: 0, Value: 1}}); return err },
			"shamir: invalid evaluation point 0"},
		{"point P", func() error { _, err := Reconstruct([]Share{{X: P, Value: 1}}); return err },
			"shamir: invalid evaluation point 2147483647"},
		{"duplicate", func() error {
			_, err := Reconstruct([]Share{{X: 3, Value: 1}, {X: 5, Value: 2}, {X: 3, Value: 4}})
			return err
		}, "shamir: duplicate evaluation point 3"},
		{"invalid before duplicate", func() error {
			_, err := Reconstruct([]Share{{X: 3, Value: 1}, {X: -1, Value: 2}, {X: 3, Value: 4}})
			return err
		}, "shamir: invalid evaluation point -1"},
		{"below threshold", func() error { _, err := Consistent([]Share{{X: 1, Value: 1}}, 2); return err },
			"shamir: 1 shares below threshold 2"},
		{"duplicate base", func() error {
			_, err := Consistent([]Share{{X: 1, Value: 1}, {X: 1, Value: 2}, {X: 2, Value: 3}}, 2)
			return err
		}, "shamir: zero has no inverse"},
		{"basis threshold", func() error { _, err := NewBasis(4, 5); return err },
			"shamir: threshold 5 out of range [1,4]"},
	}
	for _, tc := range cases {
		if err := tc.err(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}
