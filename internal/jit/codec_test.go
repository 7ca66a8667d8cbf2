package jit

import (
	"testing"

	"signext/internal/codecache"
	"signext/internal/guard"
)

// TestPersistentCacheWarmIdentity: a compile against a fresh process's
// cache (empty memory, populated disk) must be bit-identical to the cold
// compile that populated the disk — the restart-survival contract.
func TestPersistentCacheWarmIdentity(t *testing.T) {
	cu := compileSrc(t)
	dir := t.TempDir()
	disk, err := codecache.OpenDiskStore(dir, PayloadCodec())
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Variant: All, GeneralOpts: true, Checked: true,
		Cache: codecache.NewSpill(codecache.NewSharded(64<<20, 4), disk)}
	cold, err := Compile(cu.Prog, o)
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, "cold", cold)
	if disk.Stats().Stores == 0 {
		t.Fatal("cold compile persisted nothing")
	}

	// "Restart": same disk store, empty memory cache.
	o2 := o
	o2.Cache = codecache.NewSpill(codecache.NewSharded(64<<20, 4), disk)
	warm, err := Compile(cu.Prog, o2)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheStats.Hits != len(cu.Prog.Funcs) {
		t.Fatalf("warm hits = %d, want %d (all from disk)", warm.CacheStats.Hits, len(cu.Prog.Funcs))
	}
	if disk.Stats().Loads == 0 {
		t.Fatal("warm compile never read the disk store")
	}
	if warm.Stats != cold.Stats || warm.StaticExts != cold.StaticExts {
		t.Fatalf("warm stats diverge: %+v vs %+v", warm.Stats, cold.Stats)
	}
	for _, fn := range cold.Prog.Funcs {
		if warm.Prog.Func(fn.Name).Format() != fn.Format() {
			t.Fatalf("%s: disk-warmed result not bit-identical", fn.Name)
		}
	}
}

// TestPersistentCacheCorruptEntryRecompiled: flipping bytes in persisted
// entries must never change a compile's result — corrupt files are
// quarantined and the functions silently recompiled.
func TestPersistentCacheCorruptEntryRecompiled(t *testing.T) {
	cu := compileSrc(t)
	dir := t.TempDir()
	disk, err := codecache.OpenDiskStore(dir, PayloadCodec())
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Variant: All, GeneralOpts: true,
		Cache: codecache.NewSpill(codecache.New(64<<20), disk)}
	cold, err := Compile(cu.Prog, o)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt every persisted entry, deterministically.
	inj := guard.NewInjector(1)
	corrupted := 0
	for {
		if _, ok := inj.CorruptDiskEntry(dir); !ok {
			break
		}
		corrupted++
		if corrupted >= 64 {
			break
		}
	}
	if corrupted == 0 {
		t.Fatal("injector found no disk entries to corrupt")
	}

	o2 := o
	o2.Cache = codecache.NewSpill(codecache.New(64<<20), disk)
	warm, err := Compile(cu.Prog, o2)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Stats().Quarantined == 0 {
		t.Fatal("no corrupt entry was quarantined")
	}
	for _, fn := range cold.Prog.Funcs {
		if warm.Prog.Func(fn.Name).Format() != fn.Format() {
			t.Fatalf("%s: result diverged after disk corruption — the cache lied", fn.Name)
		}
	}
}

// TestPayloadCodecDeclinesFallbackEntries: entries carrying fallback records
// are not persisted.
func TestPayloadCodecDeclinesFallbackEntries(t *testing.T) {
	codec := PayloadCodec()
	if _, ok := codec.Encode(&cachePayload{fallbacks: []*guard.PhaseError{{Phase: "signext"}}}); ok {
		t.Fatal("codec persisted an entry with fallback records")
	}
	if _, ok := codec.Encode("not a payload"); ok {
		t.Fatal("codec persisted a foreign payload type")
	}
}

// TestPayloadCodecRejectsGarbage: version skew and semantically garbled IR
// both come back as decode errors (the quarantine trigger), never panics.
func TestPayloadCodecRejectsGarbage(t *testing.T) {
	codec := PayloadCodec()
	for _, bad := range []string{
		`not json`,
		`{"version":999,"func":""}`,
		`{"version":1,"func":"not ir"}`,
		`{"version":1,"func":"func f() i32 {\nb0:\n\tr0 = const 1\n}"}`, // block without terminator
	} {
		if _, _, err := codec.Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%q) accepted garbage", bad)
		}
	}
}
