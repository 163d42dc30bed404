package main

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
)

// rng is a splitmix64 generator. The benchmark owns its randomness so
// that a program change cannot shift the workload: the op stream is a
// pure function of (seed, workload, worker).
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string, worker int) *rng {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(stream) {
		h = mix64(h ^ uint64(c))
	}
	return &rng{s: mix64(h ^ uint64(worker+1)*0xbf58476d1ce4e5b9)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// below returns a uniform integer in [0, n).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// unit returns a uniform float in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// zipf samples ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^s,
// by inverting a precomputed CDF. Ranks map to key indexes through a
// seeded permutation so the hot keys are scattered over the key order
// (adjacent hot keys would turn skew into artificial page contention).
type zipf struct {
	cdf  []float64
	perm []uint32
}

func newZipf(n int, s float64, seed uint64) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: make([]uint32, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	for i := range z.perm {
		z.perm[i] = uint32(i)
	}
	r := newRNG(seed, "zipf-perm", 0)
	for i := n - 1; i > 0; i-- {
		j := r.below(uint64(i + 1))
		z.perm[i], z.perm[j] = z.perm[j], z.perm[i]
	}
	return z
}

// sample draws one key index.
func (z *zipf) sample(r *rng) int {
	u := r.unit()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return int(z.perm[k])
}

// opKind is one operation of a workload mix.
type opKind uint8

const (
	opGet opKind = iota
	opUpdate
	opInsert
	opDelete
	opScan
	nOpKinds
)

var opNames = [nOpKinds]string{"get", "update", "insert", "delete", "scan"}

// latency classes reported end to end
const (
	classRead = iota
	classWrite
	classScan
	nClasses
)

func (k opKind) class() int {
	switch k {
	case opGet:
		return classRead
	case opScan:
		return classScan
	}
	return classWrite
}

// mix is a cumulative percentage table over op kinds.
type mix [nOpKinds]int

func (m *mix) draw(r *rng) opKind {
	x := int(r.below(100))
	for k := opKind(0); k < nOpKinds; k++ {
		if x < m[k] {
			return k
		}
		x -= m[k]
	}
	panic("mix does not sum to 100")
}

// wordValue encodes (key index, version) into a clean index word: the
// high part is a hash of the key, so a value read under the wrong key or
// torn across two writes fails wordValueOK.
func wordValue(key uint64, version uint32) uint64 {
	return (mix64(key)&0xffffffff)<<24 | uint64(version)&0xffffff
}

func wordValueOK(key, v uint64) bool {
	return v>>24 == mix64(key)&0xffffffff && v>>56 == 0
}

// kvKey renders key index i as a fixed-width codec key ("k" + 5 digits
// for 2^16 keys), so byte order equals index order.
func kvKey(dst []byte, i int) []byte {
	dst = append(dst[:0], 'k', 0, 0, 0, 0, 0)
	for p := 5; p >= 1; p-- {
		dst[p] = byte('0' + i%10)
		i /= 10
	}
	return dst
}

// kvKeyIndex parses a kvKey back; ok is false for anything else.
func kvKeyIndex(k []byte) (int, bool) {
	if len(k) != 6 || k[0] != 'k' {
		return 0, false
	}
	i := 0
	for _, c := range k[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		i = i*10 + int(c-'0')
	}
	return i, true
}

// kvValue fills a blob value of n bytes for (key index, version): an
// 8-byte header (key, version) followed by a pattern derived from both,
// so a cross-key, stale or torn value is caught by kvValueOK, and the
// oracle checks the length.
func kvValue(dst []byte, key int, version uint32, n int) []byte {
	dst = append(dst[:0], make([]byte, n)...)
	binary.LittleEndian.PutUint32(dst[0:], uint32(key))
	binary.LittleEndian.PutUint32(dst[4:], version)
	s := mix64(uint64(key)<<32 | uint64(version))
	for i := 8; i < n; i += 8 {
		s = mix64(s + uint64(i))
		binary.LittleEndian.PutUint64(dst[i:], s)
	}
	return dst
}

// kvValueOK validates a value read under key index key and returns its
// version.
func kvValueOK(key int, v []byte) (uint32, bool) {
	if len(v) < 8 || len(v)%8 != 0 || binary.LittleEndian.Uint32(v) != uint32(key) {
		return 0, false
	}
	version := binary.LittleEndian.Uint32(v[4:])
	s := mix64(uint64(key)<<32 | uint64(version))
	for i := 8; i < len(v); i += 8 {
		s = mix64(s + uint64(i))
		if binary.LittleEndian.Uint64(v[i:]) != s {
			return 0, false
		}
	}
	return version, true
}
