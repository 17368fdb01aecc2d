package pattern

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCompiledAgreesWithNaiveOnTable(t *testing.T) {
	for _, tc := range matchCases {
		c := CompileGlob(tc.pat)
		if got := c.MatchString(tc.s); got != tc.want {
			t.Errorf("CompileGlob(%q).MatchString(%q) = %v, want %v", tc.pat, tc.s, got, tc.want)
		}
		if got := c.Match([]byte(tc.s)); got != tc.want {
			t.Errorf("CompileGlob(%q).Match(%q) = %v, want %v", tc.pat, tc.s, got, tc.want)
		}
		if got := MatchNaive(tc.pat, tc.s); got != tc.want {
			t.Errorf("MatchNaive(%q, %q) = %v, want %v", tc.pat, tc.s, got, tc.want)
		}
	}
}

// randomHarshPattern generates patterns that stress the dark corners the
// table misses: escapes (including trailing backslash), negated classes,
// ranges, and malformed (unterminated) classes.
func randomHarshPattern(r *rand.Rand) string {
	n := r.Intn(10)
	var sb strings.Builder
	for k := 0; k < n; k++ {
		switch r.Intn(12) {
		case 0, 1:
			sb.WriteByte('a')
		case 2:
			sb.WriteByte('b')
		case 3:
			sb.WriteByte('c')
		case 4, 5:
			sb.WriteByte('*')
		case 6:
			sb.WriteByte('?')
		case 7:
			sb.WriteString("[ab]")
		case 8:
			sb.WriteString("[^a]")
		case 9:
			sb.WriteString("[a-c]")
		case 10:
			sb.WriteByte('\\')
		case 11:
			sb.WriteByte('[') // often malformed
		}
	}
	return sb.String()
}

// Property: the compiled matcher and the naive interpreter agree on random
// pattern/input pairs, for both the []byte and string entry points.
func TestCompiledEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pat := randomHarshPattern(r)
		in := randomInput(r)
		want := MatchNaive(pat, in)
		c := CompileGlob(pat)
		if got := c.MatchString(in); got != want {
			t.Logf("pat=%q in=%q: compiled string=%v naive=%v", pat, in, got, want)
			return false
		}
		if got := c.Match([]byte(in)); got != want {
			t.Logf("pat=%q in=%q: compiled bytes=%v naive=%v", pat, in, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

func TestCompileCacheSharing(t *testing.T) {
	SetCompileCacheSize(DefaultCompileCacheSize)
	defer SetCompileCacheSize(DefaultCompileCacheSize)

	a := CompileGlob("*shared pattern*")
	b := CompileGlob("*shared pattern*")
	if a != b {
		t.Error("second CompileGlob of the same pattern should return the cached object")
	}
	if a.Pattern() != "*shared pattern*" {
		t.Errorf("Pattern() = %q", a.Pattern())
	}

	// Incremental matchers share the same compiled op program.
	m1 := NewIncremental("*shared ops*")
	m2 := NewIncremental("*shared ops*")
	if len(m1.ops) == 0 || &m1.ops[0] != &m2.ops[0] {
		t.Error("incremental matchers for one pattern should share compiled ops")
	}
	// ...but carry independent live state.
	m1.Feed([]byte("shared ops"))
	if !m1.Matched() || m2.Matched() {
		t.Error("shared ops must not leak match state between matchers")
	}

	hits0, _, _ := CompileCacheStats()
	CompileGlob("*shared pattern*")
	hits1, _, _ := CompileCacheStats()
	if hits1 != hits0+1 {
		t.Errorf("cache hits went %d -> %d, want +1", hits0, hits1)
	}
}

func TestCompileCacheDisabled(t *testing.T) {
	SetCompileCacheSize(0)
	defer SetCompileCacheSize(DefaultCompileCacheSize)

	a := CompileGlob("*uncached*")
	b := CompileGlob("*uncached*")
	if a == b {
		t.Error("with caching disabled each call should compile fresh")
	}
	if !a.MatchString("is uncached!") || !b.MatchString("is uncached!") {
		t.Error("uncached compiles should still match")
	}
}

func TestCompileRegexpCached(t *testing.T) {
	SetCompileCacheSize(DefaultCompileCacheSize)
	defer SetCompileCacheSize(DefaultCompileCacheSize)

	re1, err := CompileRegexp(`ab+c`)
	if err != nil {
		t.Fatal(err)
	}
	re2, err := CompileRegexp(`ab+c`)
	if err != nil {
		t.Fatal(err)
	}
	if re1 != re2 {
		t.Error("second CompileRegexp of the same pattern should return the cached object")
	}
	if !re1.MatchString("abbc") {
		t.Error("cached regexp does not match")
	}

	// Errors are cached too: same pattern, same error, no recompilation.
	_, err1 := CompileRegexp(`a(`)
	if err1 == nil {
		t.Fatal("expected compile error")
	}
	_, err2 := CompileRegexp(`a(`)
	if err1 != err2 {
		t.Error("regexp compile error should be served from cache")
	}

	// Glob and regexp entries of the same text do not collide.
	g := CompileGlob(`ab+c`)
	if !g.MatchString("ab+c") || g.MatchString("abbc") {
		t.Error("glob entry collided with regexp entry for the same text")
	}
}

func TestCompileCacheBounded(t *testing.T) {
	SetCompileCacheSize(4)
	defer SetCompileCacheSize(DefaultCompileCacheSize)

	pats := []string{"*p0*", "*p1*", "*p2*", "*p3*", "*p4*", "*p5*", "*p6*", "*p7*"}
	for _, p := range pats {
		CompileGlob(p)
	}
	if n := compileCache.Len(); n > 4 {
		t.Errorf("cache holds %d entries, cap 4", n)
	}
	_, _, evicted := CompileCacheStats()
	if evicted == 0 {
		t.Error("expected evictions after overflowing the cache")
	}
}

// TestCompileCacheHitAllocs: a cache hit allocates nothing, for globs and
// regexps, short patterns and long: the lookup builds no key.
func TestCompileCacheHitAllocs(t *testing.T) {
	long := strings.Repeat("*segment-", 16) + "*"
	for _, pat := range []string{"*ok*", long} {
		CompileGlob(pat)
		if _, err := CompileRegexp(pat[1:]); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { CompileGlob(pat) }); n != 0 {
			t.Errorf("CompileGlob hit on a %d-byte pattern: %.2f allocs, want 0", len(pat), n)
		}
		if n := testing.AllocsPerRun(100, func() { CompileRegexp(pat[1:]) }); n != 0 {
			t.Errorf("CompileRegexp hit on a %d-byte pattern: %.2f allocs, want 0", len(pat)-1, n)
		}
	}
}
