// Package shamir implements Shamir's secret sharing over the prime field
// GF(2³¹−1), the substrate behind the paper's asynchronous fully-connected
// scenario (Section 1.1): "for an asynchronous fully connected network, they
// apply Shamir's secret sharing scheme in a straightforward manner and get
// an optimal resilience result of k = n/2−1".
//
// A secret s is embedded as the constant term of a uniformly random degree
// t−1 polynomial; share x (x = 1..n) is the polynomial's value at x. Any t
// shares reconstruct s by Lagrange interpolation at 0; any t−1 shares are
// consistent with every candidate secret and therefore reveal nothing —
// both facts have property tests.
//
// The modulus 2³¹−1 is a Mersenne prime: field elements fit in 31 bits, so
// products fit in int64 without overflow and shares embed directly into the
// simulator's int64 message payloads.
//
// Interpolation is barycentric: the weights of a point set are inverted
// once (one field inversion for the whole set), after which evaluating at
// any x costs O(t) multiplications. The fully-connected election always
// interpolates over the same points, 1..n with threshold t, so its
// interpolation is precomputed per (n, t) as a Basis — the coefficients of
// the secret and of every consistency probe — built once per election and
// shared read-only by all of its runs. Reconstruct and Consistent take
// arbitrary points and derive their weights per call with the same
// builder, so both paths return identical field elements.
package shamir

import (
	"errors"
	"fmt"
)

// P is the field modulus, the Mersenne prime 2³¹−1.
const P int64 = 1<<31 - 1

// mod reduces into [0, P).
func mod(v int64) int64 {
	v %= P
	if v < 0 {
		v += P
	}
	return v
}

// mulmod multiplies in the field (operands already reduced; the product of
// two 31-bit values fits in 62 bits).
func mulmod(a, b int64) int64 { return a * b % P }

// powmod computes a^e in the field.
func powmod(a, e int64) int64 {
	result := int64(1)
	a = mod(a)
	for e > 0 {
		if e&1 == 1 {
			result = mulmod(result, a)
		}
		a = mulmod(a, a)
		e >>= 1
	}
	return result
}

// invmod computes the multiplicative inverse via Fermat's little theorem.
func invmod(a int64) (int64, error) {
	if mod(a) == 0 {
		return 0, errors.New("shamir: zero has no inverse")
	}
	return powmod(a, P-2), nil
}

// Share is one point of a sharing: the polynomial evaluated at X.
type Share struct {
	X     int64 // evaluation point, 1..n
	Value int64 // field element
}

// Source is the randomness Split consumes: any generator exposing Int63n.
// Both *math/rand.Rand and *sim.Stream satisfy it.
type Source interface {
	Int63n(n int64) int64
}

// Split shares the secret among n parties with reconstruction threshold t:
// any t shares determine the secret, any fewer are independent of it.
func Split(secret int64, t, n int, rng Source) ([]Share, error) {
	if t < 1 || t > n {
		return nil, fmt.Errorf("shamir: threshold %d out of range [1,%d]", t, n)
	}
	if int64(n) >= P {
		return nil, fmt.Errorf("shamir: too many parties (%d)", n)
	}
	if secret < 0 || secret >= P {
		return nil, fmt.Errorf("shamir: secret %d outside GF(%d)", secret, P)
	}
	coeffs := make([]int64, t)
	coeffs[0] = secret
	for i := 1; i < t; i++ {
		coeffs[i] = rng.Int63n(P)
	}
	shares := make([]Share, n)
	for x := 1; x <= n; x++ {
		shares[x-1] = Share{X: int64(x), Value: eval(coeffs, int64(x))}
	}
	return shares, nil
}

// eval computes the polynomial at x by Horner's rule.
func eval(coeffs []int64, x int64) int64 {
	var acc int64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = mod(mulmod(acc, x) + coeffs[i])
	}
	return acc
}

// Reconstruct recovers the secret from at least one share per distinct
// evaluation point, using Lagrange interpolation at 0 over the first
// len(shares) points supplied.
func Reconstruct(shares []Share) (int64, error) {
	if len(shares) == 0 {
		return 0, errors.New("shamir: no shares")
	}
	for i, s := range shares {
		if s.X <= 0 || s.X >= P {
			return 0, fmt.Errorf("shamir: invalid evaluation point %d", s.X)
		}
		for _, prev := range shares[:i] {
			if prev.X == s.X {
				return 0, fmt.Errorf("shamir: duplicate evaluation point %d", s.X)
			}
		}
	}
	return interpolateAt(shares, 0)
}

// Consistent reports whether all shares lie on one polynomial of degree
// < t: the receiver-side cheater detection used by the fully-connected
// election. It interpolates from the first t shares and checks the rest.
// The election itself, whose points are always 1..n, checks through a
// Basis instead and pays no inversion per call.
func Consistent(shares []Share, t int) (bool, error) {
	if len(shares) < t {
		return false, fmt.Errorf("shamir: %d shares below threshold %d", len(shares), t)
	}
	xs, ys := split(shares[:t])
	in, err := newInterp(xs)
	if err != nil {
		return false, err
	}
	for _, probe := range shares[t:] {
		if dot(ys, in.coeffs(probe.X)) != probe.Value {
			return false, nil
		}
	}
	return true, nil
}

// interpolateAt evaluates the unique degree-(len(base)−1) polynomial
// through base at x.
func interpolateAt(base []Share, x int64) (int64, error) {
	xs, ys := split(base)
	in, err := newInterp(xs)
	if err != nil {
		return 0, err
	}
	return dot(ys, in.coeffs(x)), nil
}

// split returns the evaluation points and the values of shares.
func split(shares []Share) (xs, ys []int64) {
	k := len(shares)
	buf := make([]int64, 2*k)
	xs, ys = buf[:k:k], buf[k:]
	for i, s := range shares {
		xs[i], ys[i] = s.X, s.Value
	}
	return xs, ys
}

// Basis is the interpolation of one election shape, precomputed: the
// evaluation points 1..n with threshold t, where the shares at points 1..t
// form the base. It holds, for x = 0 (the secret) and for each probe point
// x = t+1..n, the coefficients cᵢ with p(x) = Σᵢ p(i)·cᵢ for every
// polynomial p of degree < t. NewBasis pays the one field inversion;
// Secret and Consistent then cost t and (n−t)·t field multiplications per
// call, with no inversion and no allocation, and return exactly what
// Reconstruct and Consistent return on the same shares. A Basis is
// immutable, so one serves any number of goroutines.
type Basis struct {
	n, t int
	coef []int64 // row 0 evaluates at 0, row r ≥ 1 at t+r; each row t wide
}

// NewBasis precomputes the basis for points 1..n and threshold t.
func NewBasis(n, t int) (*Basis, error) {
	if t < 1 || t > n {
		return nil, fmt.Errorf("shamir: threshold %d out of range [1,%d]", t, n)
	}
	if int64(n) >= P {
		return nil, fmt.Errorf("shamir: too many parties (%d)", n)
	}
	xs := make([]int64, t)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	in, err := newInterp(xs)
	if err != nil {
		return nil, err
	}
	b := &Basis{n: n, t: t, coef: make([]int64, (n-t+1)*t)}
	for r := 0; r <= n-t; r++ {
		x := 0
		if r > 0 {
			x = t + r
		}
		copy(b.coef[r*t:], in.coeffs(int64(x)))
	}
	return b, nil
}

// Secret interpolates the secret from vals[i], the share at point i+1,
// for i < t.
func (b *Basis) Secret(vals []int64) int64 {
	return dot(vals[:b.t], b.coef[:b.t])
}

// Consistent reports whether vals[i], the share at point i+1 for
// i < n, all lie on one polynomial of degree < t.
func (b *Basis) Consistent(vals []int64) bool {
	base := vals[:b.t]
	for r := 1; r <= b.n-b.t; r++ {
		if dot(base, b.coef[r*b.t:(r+1)*b.t]) != vals[b.t+r-1] {
			return false
		}
	}
	return true
}

// dot is Σᵢ ysᵢ·csᵢ in the field. Each term lies in (−P, P) and the sum
// stays reduced, so one conditional correction replaces a reduction.
func dot(ys, cs []int64) int64 {
	var acc int64
	for i, y := range ys {
		acc += mulmod(y, cs[i])
		if acc >= P {
			acc -= P
		} else if acc < 0 {
			acc += P
		}
	}
	return acc
}

// interp is the barycentric form of the interpolation through fixed,
// pairwise distinct points xs: the weights wᵢ = 1/Πⱼ≠ᵢ(xᵢ−xⱼ), inverted
// once, turn every later evaluation into O(len(xs)) multiplications.
type interp struct {
	xs, w          []int64
	prefix, suffix []int64 // scratch of coeffs
	c              []int64 // coeffs' result
}

// newInterp computes the weights. It fails on duplicate points (a zero
// has no inverse), like the textbook Lagrange form. The k denominators
// share one inversion: with running products Dᵢ = d₀⋯dᵢ, the inverse of
// D_{k−1} yields every 1/dᵢ by back-multiplication (Montgomery's trick).
func newInterp(xs []int64) (interp, error) {
	k := len(xs)
	buf := make([]int64, 4*k+2)
	in := interp{xs: xs, w: buf[:k:k], prefix: buf[k : 2*k+1 : 2*k+1], suffix: buf[2*k+1 : 3*k+2 : 3*k+2], c: buf[3*k+2:]}
	dens := in.c // the denominators dᵢ, until coeffs reuses the slice
	running := int64(1)
	for i, xi := range xs {
		den := int64(1)
		for j, xj := range xs {
			if i != j {
				den = mulmod(den, mod(xi-xj))
			}
		}
		dens[i] = den
		in.w[i] = running // D_{i−1}
		running = mulmod(running, den)
	}
	inv, err := invmod(running)
	if err != nil {
		return interp{}, err
	}
	for i := k - 1; i >= 0; i-- { // inv = 1/D_i
		in.w[i] = mulmod(inv, in.w[i])
		inv = mulmod(inv, dens[i])
	}
	return in, nil
}

// coeffs returns the Lagrange basis polynomials at x,
// cᵢ = wᵢ·Πⱼ≠ᵢ(x−xⱼ), each product taken from prefix and suffix products
// of (x−xⱼ); the slice is reused by the next call. At x = xₖ every cᵢ but
// cₖ = 1 vanishes, so evaluating a base point returns its own value, as
// the quadratic form does.
func (in *interp) coeffs(x int64) []int64 {
	k := len(in.xs)
	// prefix[i] = Π_{j<i}(x−xⱼ), suffix[i] = Π_{j>i}(x−xⱼ).
	prefix, suffix := in.prefix, in.suffix
	prefix[0] = 1
	for i, xi := range in.xs {
		prefix[i+1] = mulmod(prefix[i], mod(x-xi))
	}
	suffix[k] = 1
	for i := k - 1; i >= 0; i-- {
		suffix[i] = mulmod(suffix[i+1], mod(x-in.xs[i]))
	}
	for i := range in.xs {
		in.c[i] = mulmod(mulmod(prefix[i], suffix[i+1]), in.w[i])
	}
	return in.c
}
