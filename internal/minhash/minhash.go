// Package minhash provides seeded integer hash functions used for
// shingle-based candidate generation (§III-C). The paper's f: V →
// {1,...,|V|} is a uniform random hash function redrawn each iteration; two
// supernodes receive the same shingle with probability equal to the Jaccard
// similarity of their (closed) neighbor sets, which is exactly the min-wise
// independent permutation guarantee [26].
package minhash

import "math/bits"

// Hash is a seeded pseudo-random function over node IDs. Distinct seeds give
// (approximately) independent functions.
type Hash struct {
	a, b uint64
}

// splitmix64 is the SplitMix64 finalizer; a high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New derives a hash function from seed. Any seed is valid.
func New(seed uint64) Hash {
	a := splitmix64(seed)
	if a%2 == 0 {
		a++ // multiplicative constant must be odd for full period
	}
	b := splitmix64(seed ^ 0xdeadbeefcafef00d)
	return Hash{a: a, b: b}
}

// Uint64 returns the 64-bit hash of x.
func (h Hash) Uint64(x uint32) uint64 {
	v := (uint64(x)+1)*h.a + h.b
	return bits.RotateLeft64(v, 31) * 0x9e3779b97f4a7c15
}
