package hashfn

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSum64KnownVectors(t *testing.T) {
	// Reference values from the canonical xxHash64 implementation.
	cases := []struct {
		seed uint64
		in   string
		want uint64
	}{
		{0, "", 0xef46db3751d8e999},
		{0, "a", 0xd24ec4f1a98c6e5b},
		{0, "abc", 0x44bc2cf5ad770999},
		{0, "hello world", 0x45ab6734b21e6968},
		{0, "xxhash is a fast hash function", 0x5c90eb3418fc483b},
		{1, "abc", 0xbea9ca8199328908},
		{0, "0123456789abcdef0123456789abcdef0123456789", 0xa76190c3acf08a1c},
	}
	for _, tc := range cases {
		if got := Sum64(tc.seed, []byte(tc.in)); got != tc.want {
			t.Errorf("Sum64(%d, %q) = %#x, want %#x", tc.seed, tc.in, got, tc.want)
		}
	}
}

func TestSum64AllLengths(t *testing.T) {
	// Exercise every tail-handling branch: lengths 0..64 must all produce
	// distinct values for distinct inputs and be stable.
	seen := map[uint64]int{}
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	for n := 0; n <= 64; n++ {
		h := Sum64(0, buf[:n])
		if prev, dup := seen[h]; dup {
			t.Fatalf("lengths %d and %d collide: %#x", prev, n, h)
		}
		seen[h] = n
		if h != Sum64(0, buf[:n]) {
			t.Fatalf("Sum64 not deterministic at length %d", n)
		}
	}
}

func TestHash1Hash2Independent(t *testing.T) {
	// The two hash functions must not be correlated: count matching low bits
	// over many keys; independence gives ~50%.
	match := 0
	const keys = 10000
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("user%08d", i))
		h1, h2 := Pair(key)
		if h1 == h2 {
			t.Fatalf("Hash1 == Hash2 for key %q", key)
		}
		if h1&1 == h2&1 {
			match++
		}
	}
	if match < keys*45/100 || match > keys*55/100 {
		t.Fatalf("low-bit agreement %d/%d; hashes look correlated", match, keys)
	}
}

func TestAvalanche(t *testing.T) {
	// Flipping one input bit should flip ~32 of 64 output bits on average.
	base := []byte("0123456789abcdef")
	h0 := Hash1(base)
	totalFlips := 0
	trials := 0
	for byteIdx := range base {
		for bit := 0; bit < 8; bit++ {
			mutated := append([]byte(nil), base...)
			mutated[byteIdx] ^= 1 << bit
			totalFlips += bits.OnesCount64(h0 ^ Hash1(mutated))
			trials++
		}
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 28 || avg > 36 {
		t.Fatalf("avalanche average %.2f bits, want ~32", avg)
	}
}

func TestBucketDistribution(t *testing.T) {
	// Keys spread over 64 buckets should be within 3x of uniform.
	const buckets = 64
	const keys = 64 * 1000
	var counts [buckets]int
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("user%d", i))
		counts[Hash1(key)%buckets]++
	}
	for b, c := range counts {
		if c < keys/buckets/3 || c > keys/buckets*3 {
			t.Fatalf("bucket %d holds %d keys, expected ~%d", b, c, keys/buckets)
		}
	}
}

// fpChiSquare draws n hashes from next and returns the chi-square statistic
// of their fingerprints against the distribution Fingerprint promises: 2..255
// at 1/256 each and 1 at twice that (it absorbs the remapped zero). 254
// degrees of freedom: mean 254, standard deviation 22.5.
func fpChiSquare(t *testing.T, n int, next func() uint64) float64 {
	t.Helper()
	var counts [256]int
	for i := 0; i < n; i++ {
		counts[Fingerprint(next())]++
	}
	if counts[0] != 0 {
		t.Fatalf("Fingerprint returned 0 for %d of %d hashes", counts[0], n)
	}
	x := 0.0
	for v := 1; v < 256; v++ {
		e := float64(n) / 256
		if v == 1 {
			e *= 2
		}
		d := float64(counts[v]) - e
		x += d * d / e
	}
	return x
}

// TestFingerprint pins the contract of the OCF fingerprint: never zero,
// uniform over keys, and still uniform among keys that agree on the hash bits
// placement consumes — which is what a probe's candidate buckets hold. The
// conditional cases fix a bit field of h1 and randomise the rest, the model
// of "all keys of one segment / bucket / shard" that needs no 2^24-segment
// table to sample from.
func TestFingerprint(t *testing.T) {
	if err := quick.Check(func(h uint64) bool { return Fingerprint(h) != 0 }, nil); err != nil {
		t.Fatal(err)
	}

	// About 6 standard deviations over the mean: one class in ~10^8 crosses
	// it by chance, and the seed is fixed anyway. A fingerprint that repeats
	// a placement bit scores in the thousands.
	const limit = 390
	const perClass = 20000

	key := 0
	if x := fpChiSquare(t, 500000, func() uint64 {
		key++
		return Hash1([]byte(fmt.Sprintf("user%08d", key)))
	}); x > limit {
		t.Errorf("fingerprints of 500000 distinct keys: chi-square %.0f > %d", x, limit)
	}

	r := rand.New(rand.NewSource(1))
	within := func(class string, mask, val uint64) {
		t.Helper()
		x := fpChiSquare(t, perClass, func() uint64 { return r.Uint64()&^mask | val })
		if x > limit {
			t.Fatalf("%s (h1&%#x == %#x): chi-square %.0f > %d", class, mask, val, x, limit)
		}
	}
	// Segment: h1 % segments at 2^k segments is the low k bits.
	for _, k := range []uint{8, 12, 16, 24} {
		mask := uint64(1)<<k - 1
		for c := 0; c < 64; c++ {
			within(fmt.Sprintf("residue class of h1 mod 2^%d", k), mask, r.Uint64()&mask)
		}
	}
	// Router: shard = the top log2(Shards) bits.
	for lg := uint(1); lg <= 6; lg++ {
		for shard := uint64(0); shard < 1<<lg; shard++ {
			within(fmt.Sprintf("shard %d of %d", shard, 1<<lg), ^uint64(0)<<(64-lg), shard<<(64-lg))
		}
	}
	// Everything one probe's neighbours share at once, at the default
	// geometry: 2^24 segments, both h1 bucket choices of 64 buckets, one of
	// 64 shards.
	const all = 1<<24 - 1 | 0x3f<<32 | 0x3f<<48 | 0x3f<<58
	for c := 0; c < 64; c++ {
		within("segment+buckets+shard", all, r.Uint64()&all)
	}
}

func TestMix64(t *testing.T) {
	if Mix64(1) == Mix64(2) {
		t.Fatal("Mix64 collides on adjacent inputs")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		v := Mix64(i)
		if seen[v] {
			t.Fatalf("Mix64 collision at input %d", i)
		}
		seen[v] = true
	}
}

func TestSum64MatchesItselfViaQuick(t *testing.T) {
	f := func(seed uint64, data []byte) bool {
		return Sum64(seed, data) == Sum64(seed, append([]byte(nil), data...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSum64_16B(b *testing.B) {
	key := []byte("0123456789abcdef")
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		Sum64(0, key)
	}
}

func BenchmarkFNVBaseline_16B(b *testing.B) {
	// Context for the Sum64 number; not used by the schemes.
	key := []byte("0123456789abcdef")
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		h := fnv.New64a()
		h.Write(key)
		h.Sum64()
	}
}
