package jit

import (
	"runtime"
	"strings"
	"testing"

	"signext/internal/codecache"
	"signext/internal/guard"
	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/workloads"
)

// cacheFingerprint is the warm/cold identity check: everything fingerprint()
// captures, except the "cache" telemetry records a warm compile necessarily
// adds (walls are already excluded by fingerprint).
func cacheFingerprint(res *Result) string {
	var b strings.Builder
	for _, line := range strings.Split(fingerprint(res), "\n") {
		if strings.HasPrefix(line, "tel ") && strings.Contains(line, " "+PhaseCache+" ") {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCacheWarmIdentity is the tentpole guarantee: for every workload, every
// variant and every worker count, a warm-hit compile produces bit-identical
// IR, statistics, counter telemetry and fallback records to the cold compile
// that populated the cache — and the warm compile's timing partition stays
// disjoint (every record in exactly one bucket).
func TestCacheWarmIdentity(t *testing.T) {
	all := runtime.GOMAXPROCS(0)
	for _, w := range workloads.All() {
		cu, err := minijava.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		profile, err := ProfileRun(cu.Prog, "main", 0)
		if err != nil {
			t.Fatalf("%s: profile: %v", w.Name, err)
		}
		for _, v := range Variants {
			cache := codecache.New(64 << 20)
			o := Options{
				Variant: v, Machine: ir.IA64, GeneralOpts: true,
				Profile: profile, Parallelism: 1, Cache: cache,
			}
			cold, err := Compile(cu.Prog, o)
			if err != nil {
				t.Fatalf("%s/%v cold: %v", w.Name, v, err)
			}
			if cold.CacheStats == nil || cold.CacheStats.Hits != 0 || cold.CacheStats.Misses != len(cu.Prog.Funcs) {
				t.Fatalf("%s/%v cold: unexpected cache stats %+v", w.Name, v, cold.CacheStats)
			}
			want := cacheFingerprint(cold)
			for _, par := range []int{1, 4, all} {
				o.Parallelism = par
				warm, err := Compile(cu.Prog, o)
				if err != nil {
					t.Fatalf("%s/%v warm(par=%d): %v", w.Name, v, par, err)
				}
				cs := warm.CacheStats
				if cs == nil || cs.Hits != len(cu.Prog.Funcs) || cs.Misses != 0 {
					t.Fatalf("%s/%v warm(par=%d): expected all hits, got %+v", w.Name, v, par, cs)
				}
				if got := cacheFingerprint(warm); got != want {
					t.Fatalf("%s/%v warm(par=%d): output differs from cold compile\n--- cold ---\n%s\n--- warm ---\n%s",
						w.Name, v, par, want, got)
				}
				var work int64
				for _, r := range warm.Telemetry {
					work += int64(r.Wall)
				}
				if work != int64(warm.Timing.Total()) {
					t.Fatalf("%s/%v warm(par=%d): timing partition broken: records sum %d, Total %d",
						w.Name, v, par, work, warm.Timing.Total())
				}
			}
		}
	}
}

// TestCacheEvictionRefill drives a cache far too small for the workload so
// entries are evicted and refilled continuously, and requires compiles to
// stay bit-identical throughout — an eviction may cost time, never
// correctness.
func TestCacheEvictionRefill(t *testing.T) {
	cu, err := minijava.Compile(workloads.SPECjvm98()[0].Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(cu.Prog.Funcs) < 2 {
		t.Fatal("test premise: workload must have several functions")
	}
	cache := codecache.New(4 << 10) // a few KB: holds ~1 function
	o := Options{Variant: All, Machine: ir.IA64, GeneralOpts: true, Cache: cache, Parallelism: 1}
	ref, err := Compile(cu.Prog, o)
	if err != nil {
		t.Fatal(err)
	}
	want := cacheFingerprint(ref)
	for i := 0; i < 3; i++ {
		res, err := Compile(cu.Prog, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := cacheFingerprint(res); got != want {
			t.Fatalf("round %d: eviction-refill cycle changed the compile output", i)
		}
	}
	s := cache.Stats()
	if s.Evictions == 0 {
		t.Errorf("premise broken: no evictions under a %d-byte bound (stats %+v)", 4<<10, s)
	}
	if s.Bytes > s.CapacityBytes && s.Entries > 1 {
		t.Errorf("byte bound violated: %+v", s)
	}

	// After growing the cache, a refill pass makes the next compile all-hits
	// and still identical.
	big := codecache.New(64 << 20)
	o.Cache = big
	if _, err := Compile(cu.Prog, o); err != nil {
		t.Fatal(err)
	}
	res, err := Compile(cu.Prog, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheStats.Hits != len(cu.Prog.Funcs) || res.CacheStats.Misses != 0 {
		t.Fatalf("refill did not produce a fully warm compile: %+v", res.CacheStats)
	}
	if got := cacheFingerprint(res); got != want {
		t.Fatal("refilled warm compile differs from the original cold compile")
	}
}

// TestCacheParanoidRejectsCorruptedEntry is the chaos variant: a corrupted
// function planted under a valid cache key must be caught by paranoid-mode
// guard verification, evicted, and transparently recompiled — while a
// non-paranoid cache happily installs the corpse, which is exactly why the
// mode exists.
func TestCacheParanoidRejectsCorruptedEntry(t *testing.T) {
	cu, err := minijava.Compile(workloads.JBYTEmark()[0].Source)
	if err != nil {
		t.Fatal(err)
	}
	// GeneralOpts off keeps inlining out of the picture, so cacheKey over the
	// source functions matches what Compile computes internally.
	o := Options{Variant: All, Machine: ir.IA64, GeneralOpts: false, Parallelism: 1}
	corrupt := func() (*codecache.Cache, codecache.Key) {
		cache := codecache.New(64 << 20)
		oc := o
		oc.Cache = cache
		if _, err := Compile(cu.Prog, oc); err != nil {
			t.Fatal(err)
		}
		key := cacheKey(cu.Prog.Funcs[0], oc)
		v, ok := cache.Get(key)
		if !ok {
			t.Fatal("test premise: key derivation out of sync with Compile")
		}
		p := v.(*cachePayload)
		bad := p.fn.Clone()
		// An ext of width 64 is structurally illegal; the deep verifier
		// rejects it.
		ext := bad.NewInstr(ir.OpExt)
		ext.W = ir.W64
		ext.Dst, ext.Srcs[0], ext.NSrcs = 0, 0, 1
		bad.Entry().InsertAt(0, ext)
		cache.Put(key, &cachePayload{
			fn: bad, stats: p.stats, records: p.records,
			fallbacks: p.fallbacks, staticExts: p.staticExts,
		}, 1024)
		return cache, key
	}

	// Paranoid mode: the corruption is rejected, recompiled and replaced.
	cache, key := corrupt()
	cache.SetParanoid(true)
	oc := o
	oc.Cache = cache
	res, err := Compile(cu.Prog, oc)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheStats.ParanoidRejects != 1 {
		t.Fatalf("expected 1 paranoid reject, got %+v", res.CacheStats)
	}
	if err := guard.VerifyProgram(res.Prog, o.Machine); err != nil {
		t.Fatalf("paranoid mode shipped a corrupted function: %v", err)
	}
	if s := cache.Stats(); s.ParanoidRejects != 1 {
		t.Errorf("cache-side reject counter not bumped: %+v", s)
	}
	// The bad entry was replaced by the recompile: the next hit verifies.
	if v, ok := cache.Get(key); !ok {
		t.Error("recompiled entry was not restored")
	} else if err := guard.VerifyFunc(v.(*cachePayload).fn, o.Machine); err != nil {
		t.Errorf("restored entry still corrupt: %v", err)
	}

	// Control: without paranoid mode the planted corpse is installed
	// verbatim — the deep verifier then fails on the compiled program.
	cache, _ = corrupt()
	oc.Cache = cache
	res, err = Compile(cu.Prog, oc)
	if err != nil {
		t.Fatal(err)
	}
	if err := guard.VerifyProgram(res.Prog, o.Machine); err == nil {
		t.Fatal("control failed: corrupted entry was expected to reach the output without paranoid mode")
	}
}

// TestCacheProfileSignatureSeparation: the per-function branch-profile
// signature partitions the key space exactly. A re-gathered profile with
// identical counts (a distinct map object, as a warm-started tiered run
// produces) must hit every entry; changing a single branch count must miss
// for the affected function and only for it.
func TestCacheProfileSignatureSeparation(t *testing.T) {
	cu, err := minijava.Compile(workloads.JBYTEmark()[1].Source)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := ProfileRun(cu.Prog, "main", 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ProfileRun(cu.Prog, "main", 0) // deterministic re-run: equal counts, fresh maps
	if err != nil {
		t.Fatal(err)
	}
	cache := codecache.New(64 << 20)
	o := Options{Variant: All, Machine: ir.IA64, GeneralOpts: true, Cache: cache, Parallelism: 1, Profile: p1}
	cold, err := Compile(cu.Prog, o)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheStats.Hits != 0 {
		t.Fatalf("cold compile was not cold: %+v", cold.CacheStats)
	}
	funcs := cold.CacheStats.Misses

	o.Profile = p2
	warm, err := Compile(cu.Prog, o)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheStats.Misses != 0 || warm.CacheStats.Hits != funcs {
		t.Fatalf("re-gathered identical profile did not hit every entry: %+v", warm.CacheStats)
	}

	// Entry counts are not part of the key: order determination never
	// reads them.
	calls := p2.Clone()
	for _, fp := range calls {
		fp.Calls++
	}
	co := o
	co.Profile = calls
	for _, fn := range cu.Prog.Funcs {
		if cacheKey(fn, o) != cacheKey(fn, co) {
			t.Errorf("%s: changed entry count changed the cache key", fn.Name)
		}
	}

	// Mutate one branch count of one function: that function's key — and no
	// other — must change.
	mut := p2.Clone()
	victim := ""
	for _, fn := range cu.Prog.Funcs {
		if fp := mut[fn.Name]; fp != nil && len(fp.Branches) > 0 {
			victim = fn.Name
			break
		}
	}
	if victim == "" {
		t.Fatal("no function gathered branch counts")
	}
	for id, c := range mut[victim].Branches {
		c.Taken++ // one extra taken edge
		mut[victim].Branches[id] = c
		break
	}
	mo := o
	mo.Profile = mut
	for _, fn := range cu.Prog.Funcs {
		same := cacheKey(fn, o) == cacheKey(fn, mo)
		if fn.Name == victim && same {
			t.Errorf("%s: changed branch count did not change the cache key", fn.Name)
		}
		if fn.Name != victim && !same {
			t.Errorf("%s: unrelated function's key changed with another function's profile", fn.Name)
		}
	}
	res, err := Compile(cu.Prog, mo)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheStats.Misses != 1 || res.CacheStats.Hits != funcs-1 {
		t.Errorf("changed profile should miss exactly the affected function: %+v (funcs %d)",
			res.CacheStats, funcs)
	}
}

// TestCacheKeySeparation: compiles that may differ in output must never share
// entries — variant, profile, budget and machine all partition the key space.
func TestCacheKeySeparation(t *testing.T) {
	cu, err := minijava.Compile(workloads.JBYTEmark()[1].Source)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := ProfileRun(cu.Prog, "main", 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := codecache.New(64 << 20)
	base := Options{Variant: All, Machine: ir.IA64, GeneralOpts: true, Cache: cache, Parallelism: 1}
	if _, err := Compile(cu.Prog, base); err != nil {
		t.Fatal(err)
	}
	variants := map[string]Options{}
	for name, mut := range map[string]func(*Options){
		"variant": func(o *Options) { o.Variant = Baseline },
		"machine": func(o *Options) { o.Machine = ir.PPC64 },
		"profile": func(o *Options) { o.Profile = profile },
		"budget":  func(o *Options) { o.ElimBudget = 1 << 20 },
		"checked": func(o *Options) { o.Checked = true },
	} {
		o := base
		mut(&o)
		variants[name] = o
	}
	for name, o := range variants {
		res, err := Compile(cu.Prog, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "profile" {
			// A function with no profiled branches legitimately shares its
			// entry with the profile-less compile (identical inputs); every
			// function that has profile data must get a fresh key.
			for _, fn := range cu.Prog.Funcs {
				with, without := o, o
				without.Profile = nil
				if fp := profile[fn.Name]; fp != nil && len(fp.Branches) > 0 && cacheKey(fn, with) == cacheKey(fn, without) {
					t.Errorf("profile: %s has branch counts but key ignores them", fn.Name)
				}
			}
			if res.CacheStats.Misses == 0 {
				t.Errorf("profile: no function was recompiled under a real profile: %+v", res.CacheStats)
			}
			continue
		}
		if res.CacheStats.Hits != 0 {
			t.Errorf("%s: option change reused cache entries: %+v", name, res.CacheStats)
		}
	}
	// The unchanged options still hit.
	res, err := Compile(cu.Prog, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheStats.Misses != 0 {
		t.Errorf("baseline options stopped hitting after unrelated compiles: %+v", res.CacheStats)
	}

	// A hooked compile bypasses the cache in both directions.
	o := base
	o.PhaseHook = func(string, *ir.Func) {}
	hooked, err := Compile(cu.Prog, o)
	if err != nil {
		t.Fatal(err)
	}
	if hooked.CacheStats != nil {
		t.Errorf("hooked compile should report no cache involvement, got %+v", hooked.CacheStats)
	}
}
