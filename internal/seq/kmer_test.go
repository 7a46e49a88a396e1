package seq

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestKmerCoderBounds(t *testing.T) {
	if _, err := NewKmerCoder(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewKmerCoder(MaxK + 1); err == nil {
		t.Error("k=64 accepted")
	}
	for _, k := range []int{1, 31, 32, 47, 63} {
		if _, err := NewKmerCoder(k); err != nil {
			t.Errorf("k=%d rejected: %v", k, err)
		}
	}
}

func TestKmerEncodeDecodeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Exercise both the single-word (k<=32) and two-word (k>32) paths,
	// including every k the paper uses.
	for _, k := range []int{1, 2, 15, 31, 32, 33, 35, 37, 39, 41, 43, 45, 47, 51, 55, 59, 63} {
		c := MustKmerCoder(k)
		for trial := 0; trial < 50; trial++ {
			s := randomSeq(rng, k)
			km, ok := c.Encode(s)
			if !ok {
				t.Fatalf("k=%d: encode failed for %s", k, s)
			}
			if got := c.String(km); got != string(s) {
				t.Fatalf("k=%d roundtrip: got %s want %s", k, got, s)
			}
		}
	}
}

func TestKmerEncodeRejects(t *testing.T) {
	c := MustKmerCoder(5)
	if _, ok := c.Encode([]byte("ACG")); ok {
		t.Error("short input accepted")
	}
	if _, ok := c.Encode([]byte("ACGNT")); ok {
		t.Error("N accepted")
	}
}

func TestKmerNextSlidesWindow(t *testing.T) {
	c := MustKmerCoder(4)
	s := []byte("ACGTACGG")
	km, _ := c.Encode(s)
	for i := 4; i < len(s); i++ {
		var ok bool
		km, ok = c.Next(km, s[i])
		if !ok {
			t.Fatalf("Next rejected %c", s[i])
		}
		if got, want := c.String(km), string(s[i-3:i+1]); got != want {
			t.Fatalf("window at %d: got %s want %s", i, got, want)
		}
	}
	if _, ok := c.Next(km, 'N'); ok {
		t.Error("Next accepted N")
	}
}

func TestKmerPrevSlidesWindowBack(t *testing.T) {
	for _, k := range []int{4, 31, 33, 47} { // both word layouts
		c := MustKmerCoder(k)
		rng := rand.New(rand.NewSource(int64(k)))
		s := randomSeq(rng, k+6)
		km, _ := c.Encode(s[6:])
		for i := 5; i >= 0; i-- {
			var ok bool
			km, ok = c.Prev(km, s[i])
			if !ok {
				t.Fatalf("k=%d: Prev rejected %c", k, s[i])
			}
			if got, want := c.String(km), string(s[i:i+k]); got != want {
				t.Fatalf("k=%d window at %d: got %s want %s", k, i, got, want)
			}
		}
		if _, ok := c.Prev(km, 'N'); ok {
			t.Error("Prev accepted N")
		}
	}
}

// Property: Prev undoes Next.
func TestKmerPrevNextInverse(t *testing.T) {
	c := MustKmerCoder(35)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		s := randomSeq(rng, 36)
		km, _ := c.Encode(s[:35])
		next, _ := c.Next(km, s[35])
		back, _ := c.Prev(next, s[0])
		if back != km {
			t.Fatalf("Prev(Next(km)) != km for %s", s)
		}
	}
}

func TestKmerLexicographicOrder(t *testing.T) {
	c := MustKmerCoder(40) // two-word path
	a, _ := c.Encode([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAC"))
	b, _ := c.Encode([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAG"))
	z, _ := c.Encode([]byte("TAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"))
	if !a.Less(b) || b.Less(a) {
		t.Error("a<b violated")
	}
	if !b.Less(z) {
		t.Error("b<z violated: high bases must dominate")
	}
}

// Property: packed reverse complement equals packing of the byte-level
// reverse complement, for k spanning both word layouts.
func TestKmerReverseComplementMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{8, 31, 32, 33, 47, 63} {
		c := MustKmerCoder(k)
		f := func() bool {
			s := randomSeq(rng, k)
			km, _ := c.Encode(s)
			want := string(ReverseComplement(s))
			got := c.String(c.ReverseComplement(km))
			return got == want
		}
		for i := 0; i < 100; i++ {
			if !f() {
				t.Fatalf("k=%d: RC mismatch", k)
			}
		}
	}
}

// Property: canonicalization is idempotent and strand-symmetric.
func TestKmerCanonicalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := MustKmerCoder(35)
	f := func() bool {
		s := randomSeq(rng, 35)
		km, _ := c.Encode(s)
		rc := c.ReverseComplement(km)
		c1, _ := c.Canonical(km)
		c2, _ := c.Canonical(rc)
		c3, _ := c.Canonical(c1)
		return c1 == c2 && c1 == c3 && (!c1.Less(km) == false || true)
	}
	for i := 0; i < 300; i++ {
		if !f() {
			t.Fatal("canonical property violated")
		}
	}
}

func TestKmerForEachSkipsN(t *testing.T) {
	c := MustKmerCoder(3)
	s := []byte("ACGTNACGT")
	var got []string
	c.ForEach(s, func(pos int, km Kmer) bool {
		got = append(got, c.String(km))
		return true
	})
	want := []string{"ACG", "CGT", "ACG", "CGT"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestKmerForEachEarlyStop(t *testing.T) {
	c := MustKmerCoder(2)
	n := 0
	c.ForEach([]byte("ACGTACGT"), func(pos int, km Kmer) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop: visited %d", n)
	}
}

func TestKmerForEachPositions(t *testing.T) {
	c := MustKmerCoder(4)
	s := []byte("ACGTAC")
	var pos []int
	c.ForEach(s, func(p int, km Kmer) bool {
		pos = append(pos, p)
		if got, want := c.String(km), string(s[p:p+4]); got != want {
			t.Errorf("pos %d: %s want %s", p, got, want)
		}
		return true
	})
	if len(pos) != 3 || pos[0] != 0 || pos[2] != 2 {
		t.Errorf("positions %v", pos)
	}
}

func TestKmerHashDistribution(t *testing.T) {
	c := MustKmerCoder(21)
	rng := rand.New(rand.NewSource(17))
	buckets := make([]int, 16)
	const n = 4096
	for i := 0; i < n; i++ {
		km, _ := c.Encode(randomSeq(rng, 21))
		buckets[km.Hash()%16]++
	}
	for b, cnt := range buckets {
		if cnt < n/16/2 || cnt > n/16*2 {
			t.Errorf("bucket %d badly skewed: %d of %d", b, cnt, n)
		}
	}
}

func TestKmerHashQuick(t *testing.T) {
	// Hash must depend on both words.
	f := func(hi, lo uint64) bool {
		a := Kmer{Hi: hi, Lo: lo}
		b := Kmer{Hi: hi ^ 1, Lo: lo}
		c := Kmer{Hi: hi, Lo: lo ^ 1}
		return a.Hash() != b.Hash() && a.Hash() != c.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCountDistinct(t *testing.T) {
	c := MustKmerCoder(3)
	reads := []Read{
		{ID: "a", Seq: []byte("ACGT")}, // ACG, CGT -> canonical {ACG(=CGT rc? ACG rc=CGT) } both canonicalize to ACG
		{ID: "b", Seq: []byte("ACGT")},
	}
	got := c.CountDistinct(reads)
	// ACG and CGT are reverse complements of each other => one canonical k-mer.
	if got != 1 {
		t.Errorf("distinct = %d, want 1", got)
	}
}

func TestBaseAtPanics(t *testing.T) {
	c := MustKmerCoder(4)
	defer func() {
		if recover() == nil {
			t.Error("BaseAt out of range did not panic")
		}
	}()
	c.BaseAt(Kmer{}, 4)
}

// referenceReverseComplement is the per-base reverse complement the
// bit-parallel KmerCoder.ReverseComplement replaced: walk the bases
// 3' to 5', appending each one's complement (3-code).
func referenceReverseComplement(c KmerCoder, km Kmer) Kmer {
	var rc Kmer
	for i := c.K - 1; i >= 0; i-- {
		rc = c.shiftAppend(rc, 3-c.BaseAt(km, i))
	}
	return rc
}

// randomKmer draws a uniformly random k-mer of the coder's size,
// straight from the bit pattern rather than through Encode.
func randomKmer(rng *rand.Rand, c KmerCoder) Kmer {
	return c.mask(Kmer{Hi: rng.Uint64(), Lo: rng.Uint64()})
}

// Property, for every k: the bit-parallel reverse complement equals
// the per-base reference, is an involution, and leaves the canonical
// form unchanged. An odd-length k-mer is never its own reverse
// complement (its middle base would have to be its own complement).
func TestKmerReverseComplementBitParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for k := 1; k <= MaxK; k++ {
		c := MustKmerCoder(k)
		extremes := []Kmer{{}, c.mask(Kmer{Hi: ^uint64(0), Lo: ^uint64(0)})}
		for trial := 0; trial < 200; trial++ {
			km := randomKmer(rng, c)
			if trial < len(extremes) {
				km = extremes[trial]
			}
			rc := c.ReverseComplement(km)
			if want := referenceReverseComplement(c, km); rc != want {
				t.Fatalf("k=%d RC(%s) = %s, per-base reference %s", k, c.String(km), c.String(rc), c.String(want))
			}
			if back := c.ReverseComplement(rc); back != km {
				t.Fatalf("k=%d RC(RC(%s)) = %s", k, c.String(km), c.String(back))
			}
			c1, _ := c.Canonical(km)
			c2, _ := c.Canonical(rc)
			if c1 != c2 {
				t.Fatalf("k=%d Canonical(%s) = %s but Canonical(RC) = %s", k, c.String(km), c.String(c1), c.String(c2))
			}
			if k%2 == 1 && rc == km {
				t.Fatalf("k=%d odd-length %s is its own reverse complement", k, c.String(km))
			}
		}
	}
}

// Even-length palindromes (a half followed by its reverse complement)
// are their own reverse complement and already canonical.
func TestKmerReverseComplementPalindromes(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for k := 2; k <= MaxK; k += 2 {
		c := MustKmerCoder(k)
		for trial := 0; trial < 50; trial++ {
			half := randomSeq(rng, k/2)
			km, ok := c.Encode(append(half, ReverseComplement(half)...))
			if !ok {
				t.Fatalf("k=%d: encode failed", k)
			}
			if rc := c.ReverseComplement(km); rc != km {
				t.Fatalf("k=%d palindrome %s: RC = %s", k, c.String(km), c.String(rc))
			}
			if _, canon := c.Canonical(km); !canon {
				t.Fatalf("k=%d palindrome %s not canonical", k, c.String(km))
			}
		}
	}
}

// The word boundaries: at k=32 the k-mer fills Lo exactly and Hi is
// empty; at k=33 the 5' base is the only base in Hi. A base must
// cross between the words in both directions.
func TestKmerReverseComplementWordBoundaries(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"T" + strings.Repeat("A", 31), strings.Repeat("T", 31) + "A"},
		{strings.Repeat("C", 31) + "G", "C" + strings.Repeat("G", 31)},
		{"T" + strings.Repeat("A", 32), strings.Repeat("T", 32) + "A"},
		{strings.Repeat("C", 32) + "A", "T" + strings.Repeat("G", 32)},
		{"G" + strings.Repeat("ACGT", 8), strings.Repeat("ACGT", 8) + "C"},
	} {
		c := MustKmerCoder(len(tc.in))
		km, _ := c.Encode([]byte(tc.in))
		rc := c.ReverseComplement(km)
		if got := c.String(rc); got != tc.want {
			t.Errorf("k=%d RC(%s) = %s, want %s", c.K, tc.in, got, tc.want)
		}
		if c.K == 32 && rc.Hi != 0 {
			t.Errorf("k=32 RC(%s) set Hi = %#x", tc.in, rc.Hi)
		}
	}
}
