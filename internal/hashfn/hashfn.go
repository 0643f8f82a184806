// Package hashfn provides the hash functions used by every scheme in this
// repository: a from-scratch xxHash64 implementation, a way to derive the two
// independent hash functions that bucketized cuckoo-style tables need, and
// the one-byte fingerprints the HDNH Optimistic Compression Filter stores.
//
// All schemes share these functions so throughput differences between schemes
// come from their data layout and NVM traffic, never from hash quality.
package hashfn

import "encoding/binary"

const (
	prime1 = 0x9E3779B185EBCA87
	prime2 = 0xC2B2AE3D27D4EB4F
	prime3 = 0x165667B19E3779F9
	prime4 = 0x85EBCA77C2B2AE63
	prime5 = 0x27D4EB2F165667C5
)

// Sum64 returns the xxHash64 of b with the given seed.
func Sum64(seed uint64, b []byte) uint64 {
	n := len(b)
	var h uint64
	if n >= 32 {
		v1 := seed + prime1 + prime2
		v2 := seed + prime2
		v3 := seed
		v4 := seed - prime1
		for len(b) >= 32 {
			v1 = round(v1, binary.LittleEndian.Uint64(b[0:8]))
			v2 = round(v2, binary.LittleEndian.Uint64(b[8:16]))
			v3 = round(v3, binary.LittleEndian.Uint64(b[16:24]))
			v4 = round(v4, binary.LittleEndian.Uint64(b[24:32]))
			b = b[32:]
		}
		h = rol(v1, 1) + rol(v2, 7) + rol(v3, 12) + rol(v4, 18)
		h = mergeRound(h, v1)
		h = mergeRound(h, v2)
		h = mergeRound(h, v3)
		h = mergeRound(h, v4)
	} else {
		h = seed + prime5
	}
	h += uint64(n)
	for len(b) >= 8 {
		h ^= round(0, binary.LittleEndian.Uint64(b[:8]))
		h = rol(h, 27)*prime1 + prime4
		b = b[8:]
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b[:4])) * prime1
		h = rol(h, 23)*prime2 + prime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * prime5
		h = rol(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

func round(acc, input uint64) uint64 {
	acc += input * prime2
	return rol(acc, 31) * prime1
}

func mergeRound(h, v uint64) uint64 {
	h ^= round(0, v)
	return h*prime1 + prime4
}

func rol(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }

// Seeds for the two independent hash functions every scheme uses.
const (
	Seed1 = 0x8ebc6af09c88c6e3
	Seed2 = 0x589965cc75374cc3
)

// Hash1 is the primary hash function.
func Hash1(key []byte) uint64 { return Sum64(Seed1, key) }

// Hash2 is the secondary, independent hash function used for the second
// cuckoo candidate.
func Hash2(key []byte) uint64 { return Sum64(Seed2, key) }

// Pair computes both hashes in one call.
func Pair(key []byte) (h1, h2 uint64) { return Hash1(key), Hash2(key) }

// Fingerprint is the HDNH OCF and hot-table fingerprint: one byte derived
// from the primary hash. A zero fingerprint is remapped to 1 so that 0 can
// mean "empty slot" in filter words.
//
// The contract is that the byte stays near-uniform among keys that agree on
// every hash bit placement consumes — the low bits `h1 % segments` takes
// (all of the low k at 2^k segments), the `h1>>32` and `h1>>48` bucket bits,
// the router's top bits — because the keys a probe compares fingerprints
// with are exactly the keys that share its candidate buckets. The paper's
// "least significant byte of h1" breaks it: from 256 power-of-two segments
// on, every h1-placed record of a segment carries the same byte and the
// filter passes everything. The top byte of a multiply-shift takes a
// contribution from every bit of h1 (bit p adds the constant shifted left
// by p), so fixing any of those subsets leaves it spread by the rest.
// docs/INTERNALS.md §"Hash-bit budget" lists who consumes which bits.
//
// Fingerprints live only in DRAM and are recomputed from the keys on Open,
// so the derivation is not part of the persisted format.
func Fingerprint(h1 uint64) uint8 {
	fp := uint8(h1 * prime1 >> 56)
	if fp == 0 {
		return 1
	}
	return fp
}

// Mix64 is a splitmix64-style finalizer, handy for deriving secondary values
// (bucket choices, per-level salts) from an existing hash without touching
// the key bytes again.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
