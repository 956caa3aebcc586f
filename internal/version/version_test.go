package version

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mkVersion(v []int64, m [][]byte) Version { return Version{V: v, M: m} }

func TestNewIsZero(t *testing.T) {
	v := New(3)
	if !v.IsZero() {
		t.Fatal("New version must be zero")
	}
	if v.N() != 3 {
		t.Fatalf("N() = %d, want 3", v.N())
	}
}

func TestIsZeroDetectsNonZero(t *testing.T) {
	v := New(2)
	v.V[1] = 1
	if v.IsZero() {
		t.Fatal("nonzero timestamp vector reported zero")
	}
	w := New(2)
	w.M[0] = []byte{1}
	if w.IsZero() {
		t.Fatal("nonzero digest vector reported zero")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := New(2)
	v.V[0] = 5
	v.M[0] = []byte{1, 2}
	c := v.Clone()
	c.V[0] = 9
	c.M[0][0] = 7
	if v.V[0] != 5 || v.M[0][0] != 1 {
		t.Fatal("Clone shares memory with original")
	}
	if !v.Clone().Equal(v) {
		t.Fatal("Clone not equal to original")
	}
}

func TestLessEqBasic(t *testing.T) {
	d1 := []byte{1}
	d2 := []byte{2}
	zero := New(2)
	a := mkVersion([]int64{1, 0}, [][]byte{d1, nil})
	b := mkVersion([]int64{1, 1}, [][]byte{d1, d2})
	if !zero.LessEq(a) || !zero.LessEq(b) {
		t.Fatal("zero must be below everything with matching dims")
	}
	if !a.LessEq(b) {
		t.Fatal("a <= b expected: b extends a, digests agree where equal")
	}
	if b.LessEq(a) {
		t.Fatal("b <= a must not hold")
	}
}

func TestLessEqDigestMismatchAtEqualEntry(t *testing.T) {
	// Same timestamp vectors but different digest at an equal entry:
	// neither order holds. This is exactly how forks manifest.
	a := mkVersion([]int64{1, 0}, [][]byte{{1}, nil})
	b := mkVersion([]int64{1, 0}, [][]byte{{2}, nil})
	if a.LessEq(b) || b.LessEq(a) {
		t.Fatal("digest mismatch at equal entry must make versions incomparable")
	}
	if Comparable(a, b) {
		t.Fatal("Comparable must be false")
	}
}

func TestLessEqDigestIgnoredAtStrictlySmallerEntry(t *testing.T) {
	// Where V[k] < W[k], digests may differ freely.
	a := mkVersion([]int64{1, 0}, [][]byte{{1}, nil})
	b := mkVersion([]int64{2, 0}, [][]byte{{9}, nil})
	if !a.LessEq(b) {
		t.Fatal("digest at strictly smaller entry must not block order")
	}
}

func TestLessEqDimensionMismatch(t *testing.T) {
	a := New(2)
	b := New(3)
	if a.LessEq(b) || b.LessEq(a) {
		t.Fatal("versions of different dimension must be unordered")
	}
}

func TestLessStrict(t *testing.T) {
	a := New(2)
	b := mkVersion([]int64{0, 1}, [][]byte{nil, {1}})
	if !a.Less(b) {
		t.Fatal("zero < b expected")
	}
	if a.Less(a) {
		t.Fatal("Less must be irreflexive")
	}
}

func TestMax(t *testing.T) {
	a := New(2)
	b := mkVersion([]int64{0, 1}, [][]byte{nil, {1}})
	if m, ok := Max(a, b); !ok || !m.Equal(b) {
		t.Fatal("Max(a,b) should be b")
	}
	if m, ok := Max(b, a); !ok || !m.Equal(b) {
		t.Fatal("Max(b,a) should be b")
	}
	c := mkVersion([]int64{1, 0}, [][]byte{{1}, nil})
	d := mkVersion([]int64{0, 1}, [][]byte{nil, {2}})
	if _, ok := Max(c, d); ok {
		t.Fatal("Max of incomparable versions must report false")
	}
}

func TestVectorOrder(t *testing.T) {
	if !VectorLessEq([]int64{1, 2}, []int64{1, 2}) {
		t.Fatal("reflexive VectorLessEq failed")
	}
	if VectorLess([]int64{1, 2}, []int64{1, 2}) {
		t.Fatal("VectorLess must be irreflexive")
	}
	if !VectorLess([]int64{1, 2}, []int64{1, 3}) {
		t.Fatal("VectorLess basic case failed")
	}
	if VectorLessEq([]int64{2, 0}, []int64{1, 3}) {
		t.Fatal("incomparable vectors reported ordered")
	}
	if VectorLessEq([]int64{1}, []int64{1, 2}) {
		t.Fatal("dimension mismatch reported ordered")
	}
}

func TestDigestStepChain(t *testing.T) {
	d1 := DigestStep(nil, 0)
	d2 := DigestStep(d1, 1)
	if bytes.Equal(d1, d2) {
		t.Fatal("chain steps must differ")
	}
	if got := DigestOfSequence([]int{0, 1}); !bytes.Equal(got, d2) {
		t.Fatal("DigestOfSequence disagrees with manual chain")
	}
	if DigestOfSequence(nil) != nil {
		t.Fatal("digest of empty sequence must be nil (bottom)")
	}
}

func TestDigestChainPositionSensitive(t *testing.T) {
	a := DigestOfSequence([]int{0, 1})
	b := DigestOfSequence([]int{1, 0})
	if bytes.Equal(a, b) {
		t.Fatal("digest must depend on order")
	}
	c := DigestOfSequence([]int{0})
	if bytes.Equal(a, c) {
		t.Fatal("digest must depend on length")
	}
}

func TestCanonicalBytesDistinguishesBottomFromEmpty(t *testing.T) {
	a := mkVersion([]int64{0}, [][]byte{nil})
	b := mkVersion([]int64{0}, [][]byte{{}})
	if bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
		t.Fatal("bottom digest and empty digest must encode differently")
	}
}

func TestCanonicalBytesInjectiveOnSamples(t *testing.T) {
	versions := []Version{
		New(2),
		mkVersion([]int64{1, 0}, [][]byte{{1}, nil}),
		mkVersion([]int64{0, 1}, [][]byte{nil, {1}}),
		mkVersion([]int64{1, 1}, [][]byte{{1}, {1}}),
		mkVersion([]int64{1, 1}, [][]byte{{1}, {2}}),
	}
	seen := make(map[string]int, len(versions))
	for i, v := range versions {
		k := string(v.AppendCanonical(nil))
		if j, dup := seen[k]; dup {
			t.Fatalf("versions %d and %d encode identically", i, j)
		}
		seen[k] = i
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	v := mkVersion([]int64{1, 2}, [][]byte{nil, bytes.Repeat([]byte{0xab}, 32)})
	if s := v.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// randomVersion produces versions over a small space so that equal entries
// (and hence the digest side-condition) are actually exercised.
func randomVersion(rng *rand.Rand, n int) Version {
	v := New(n)
	digests := [][]byte{nil, {1}, {2}}
	for i := 0; i < n; i++ {
		v.V[i] = int64(rng.Intn(3))
		v.M[i] = digests[rng.Intn(len(digests))]
	}
	return v
}

// Property: LessEq is a partial order on random versions (reflexive,
// antisymmetric, transitive).
func TestQuickPartialOrderLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		a := randomVersion(rng, 3)
		b := randomVersion(rng, 3)
		c := randomVersion(rng, 3)
		if !a.LessEq(a) {
			t.Fatalf("not reflexive: %v", a)
		}
		if a.LessEq(b) && b.LessEq(a) && !a.Equal(b) {
			t.Fatalf("not antisymmetric: %v vs %v", a, b)
		}
		if a.LessEq(b) && b.LessEq(c) && !a.LessEq(c) {
			t.Fatalf("not transitive: %v, %v, %v", a, b, c)
		}
	}
}

// Property: cloning commutes with the order.
func TestQuickCloneOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 500; iter++ {
		a := randomVersion(rng, 2)
		b := randomVersion(rng, 2)
		if a.LessEq(b) != a.Clone().LessEq(b.Clone()) {
			t.Fatalf("clone changed order relation for %v, %v", a, b)
		}
	}
}

// Property: canonical encoding is injective with respect to Equal.
func TestQuickCanonicalBytesInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 2000; iter++ {
		a := randomVersion(rng, 2)
		b := randomVersion(rng, 2)
		enc := bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil))
		if enc != a.Equal(b) {
			t.Fatalf("encoding equality (%v) disagrees with Equal (%v) for %v, %v",
				enc, a.Equal(b), a, b)
		}
	}
}

// Property (testing/quick): for arbitrary timestamp vectors, VectorLessEq
// agrees with an independent elementwise implementation.
func TestQuickVectorLessEqModel(t *testing.T) {
	model := func(v, w []int64) bool {
		if len(v) != len(w) {
			return false
		}
		for i := range v {
			if v[i] > w[i] {
				return false
			}
		}
		return true
	}
	f := func(v, w []int64) bool {
		return VectorLessEq(v, w) == model(v, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionValueSemantics(t *testing.T) {
	v := New(2)
	w := v // shallow copy shares slices; Clone must not
	w.V[0] = 3
	if v.V[0] != 3 {
		t.Fatal("sanity: shallow copy should share")
	}
	if !reflect.DeepEqual(v.V, w.V) {
		t.Fatal("sanity failed")
	}
}
