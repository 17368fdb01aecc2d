package pattern

import (
	"regexp"

	"repro/internal/lru"
)

// Compiled is a glob pattern compiled once into an op program. It is
// immutable after construction and safe for concurrent use; compiling once
// and matching many times avoids re-lexing the pattern (class set
// construction in particular) on every wakeup of the expect loop.
type Compiled struct {
	pat string
	ops []globOp
}

// Pattern returns the original pattern text.
func (c *Compiled) Pattern() string { return c.pat }

// Match reports whether s matches the pattern in its entirety (anchored at
// both ends). It accepts the raw byte buffer so callers on the read loop
// never have to materialise a string copy of accumulated output.
func (c *Compiled) Match(s []byte) bool { return matchOps(c.ops, s) }

// MatchString is Match for string input.
func (c *Compiled) MatchString(s string) bool { return matchOps(c.ops, s) }

// matchOps runs the classic two-pointer backtracking glob match over a
// compiled op program. Because compileGlob collapses star runs, each '*'
// is a single backtrack point, mirroring matchHere exactly.
func matchOps[T ~[]byte | ~string](ops []globOp, s T) bool {
	px, sx := 0, 0
	starPx, starSx := -1, -1
	for sx < len(s) {
		if px < len(ops) {
			op := &ops[px]
			switch op.kind {
			case opStar:
				// Remember backtrack point; try matching zero chars first.
				starPx, starSx = px, sx
				px++
				continue
			case opAny:
				px++
				sx++
				continue
			case opLiteral:
				if op.ch == s[sx] {
					px++
					sx++
					continue
				}
			case opClass:
				if op.class.contains(s[sx]) != op.negate {
					px++
					sx++
					continue
				}
			}
		}
		// Mismatch: backtrack to the last '*' and let it eat one more char.
		if starPx >= 0 {
			starSx++
			px, sx = starPx+1, starSx
			continue
		}
		return false
	}
	// Input exhausted: remaining pattern must be all '*'.
	for px < len(ops) && ops[px].kind == opStar {
		px++
	}
	return px == len(ops)
}

// DefaultCompileCacheSize bounds the shared pattern-compile cache. Expect
// scripts cycle through a small, fixed set of patterns, so a few hundred
// entries covers steady state while keeping worst-case memory bounded.
const DefaultCompileCacheSize = 256

// compileKey names one cache entry: the pattern text and its kind. A
// comparable struct, so a lookup builds no key string.
type compileKey struct {
	regexp bool
	pat    string
}

// compileCache memoises compiled globs and regexps, keyed by kind and
// pattern text. Compiled entries are immutable, so a cached value can be
// shared freely across goroutines and matchers. A regexp that fails to
// compile caches its error under the same key: repeatedly evaluating a bad
// pattern should not repeatedly pay regexp.Compile.
var compileCache = lru.New[compileKey, any](DefaultCompileCacheSize)

// SetCompileCacheSize replaces the shared compile cache with one holding at
// most n entries; n <= 0 disables caching (every call recompiles).
func SetCompileCacheSize(n int) { compileCache = lru.New[compileKey, any](n) }

// CompileCacheStats reports hit/miss/eviction counters of the shared cache.
func CompileCacheStats() (hits, misses, evicted uint64) { return compileCache.Stats() }

// CompileGlob returns the compiled form of pat, memoised in the shared
// cache. Compiling is cheap but not free; the expect hot loop calls Match
// with the same handful of patterns on every chunk of process output.
func CompileGlob(pat string) *Compiled {
	key := compileKey{pat: pat}
	if v, ok := compileCache.Get(key); ok {
		return v.(*Compiled)
	}
	c := &Compiled{pat: pat, ops: compileGlob(pat)}
	compileCache.Put(key, c)
	return c
}

// CompileRegexp is a memoised regexp.Compile sharing the glob cache; both
// pattern kinds appear in the same expect command lists, so one bound
// covers the working set.
func CompileRegexp(pat string) (*regexp.Regexp, error) {
	key := compileKey{regexp: true, pat: pat}
	if v, ok := compileCache.Get(key); ok {
		switch e := v.(type) {
		case *regexp.Regexp:
			return e, nil
		case error:
			return nil, e
		}
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		compileCache.Put(key, err)
		return nil, err
	}
	compileCache.Put(key, re)
	return re, nil
}
