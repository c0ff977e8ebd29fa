// Package xrand provides deterministic, splittable pseudo-random number
// streams used throughout the repository.
//
// Every experiment, dataset generator and simulated model in this
// reproduction takes an explicit seed and derives independent child
// streams from it, so that identical seeds always reproduce identical
// tables regardless of evaluation order. The generator is a 64-bit
// splitmix-seeded xoshiro256** variant; it is not cryptographically
// secure and is not meant to be.
package xrand

import "math"

// RNG is a deterministic pseudo-random number generator. The zero value
// is not usable; construct one with New or derive one with Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from seed via splitmix64 expansion.
// New and SplitString are small enough to inline, so a stream the
// caller does not keep stays on the caller's stack.
func New(seed uint64) *RNG {
	r := new(RNG)
	r.seed(seed)
	return r
}

// seed sets r's state from seed via splitmix64 expansion. It is kept
// out of line so that New, which wraps it, stays inlinable.
//
//go:noinline
func (r *RNG) seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	// xoshiro must not start from the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent child stream identified by id. Two
// children with different ids, or children of different parents, are
// statistically independent for our purposes.
func (r *RNG) Split(id uint64) *RNG {
	return New(r.Uint64() ^ (id * 0xd1342543de82ef95) ^ 0x632be59bd9b4e019)
}

// SplitString derives an independent child stream named by s. Naming
// streams (rather than numbering them) keeps derivations stable when
// code paths are reordered.
func (r *RNG) SplitString(s string) *RNG {
	c := new(RNG)
	c.seedString(r, s)
	return c
}

// seedString seeds c as parent.Split(FNV-1a of s) would. Like seed,
// it is kept out of line so that SplitString stays inlinable.
//
//go:noinline
func (c *RNG) seedString(parent *RNG, s string) {
	var h uint64 = 14695981039346656037 // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	c.seed(parent.Uint64() ^ (h * 0xd1342543de82ef95) ^ 0x632be59bd9b4e019)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded rejection sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Gumbel returns a standard Gumbel variate. Adding independent Gumbel
// noise to log-scores and taking the argmax samples from the softmax
// distribution (the Gumbel-max trick), which is how the simulated LLM
// turns class scores into stochastic decisions.
func (r *RNG) Gumbel() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(-math.Log(u))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using swap (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in
// random order. If k >= n it returns a permutation of all n indices.
func (r *RNG) Sample(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	// Floyd's algorithm, then shuffle for random order.
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if seen[t] {
			t = j
		}
		seen[t] = true
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Geometric returns a geometric variate with success probability p,
// counting the number of failures before the first success (support 0,
// 1, 2, ...). It panics unless 0 < p <= 1.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Poisson returns a Poisson variate with mean lambda (Knuth's method
// for small lambda, normal approximation above 64).
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := lambda + math.Sqrt(lambda)*r.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Categorical samples an index proportionally to the non-negative
// weights. If all weights are zero it returns a uniform index. It
// panics on an empty weight slice.
func (r *RNG) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("xrand: Categorical with no weights")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
