package serve

import (
	"signext/internal/codecache"
	"signext/internal/guard"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
)

// requestEntry is a request-level cache entry: everything a repeat of one
// exact request needs short of running the program. It lives in the
// memory tier of the server's cache beside jit's per-function entries, so it
// shares their byte bound, LRU, statistics and paranoid mode. It never
// reaches the disk tier: it is not persisted, and its lookups cost no disk
// read. Nothing writes an entry once
// it is stored; concurrent hits share it.
type requestEntry struct {
	prog *ir.Program     // the compiled program
	code *interp.Code    // prog's bytecode, built once
	resp CompileResponse // static fields, as the storing compile reported them
}

// requestKeyTag leads every request key. jit's function keys lead with their
// own tag, so the two kinds of key cannot collide.
const requestKeyTag = "sxelimd-request-v1"

// requestKey derives a request's content address from every input that
// shapes its compile: the input kind and bytes, variant, machine, array
// bound, elimination budget, profiling switch and the effective step limit
// (which bounds the profiling run). The deadline is not keyed: only complete
// compiles are stored, and an expired deadline skips the lookup.
func (s *Server) requestKey(req *CompileRequest, variant jit.Variant, machine ir.Machine, maxSteps int64) codecache.Key {
	w := codecache.NewKeyWriter()
	w.String(requestKeyTag)
	if req.Source != "" {
		w.String("source")
		w.String(req.Source)
	} else {
		w.String("ir")
		w.String(req.IR)
	}
	w.Uint64(uint64(variant))
	w.Uint64(uint64(machine))
	w.Int64(s.cfg.MaxArrayLen)
	w.Int64(int64(s.cfg.ElimBudget))
	w.Bool(req.WithProfile)
	w.Int64(maxSteps)
	return w.Key()
}

// admit reports whether a compile may become a request entry: it was not
// degraded, had no fallback, and every function was a per-function cache
// hit. A program seen once compiles with misses and is never stored; its
// second request stores the entry and its third is the first to use it.
func admit(res *jit.Result) bool {
	return len(res.Degraded) == 0 && len(res.Fallbacks) == 0 &&
		res.CacheStats != nil && res.CacheStats.Misses == 0
}

// store builds prog's bytecode and stores the request entry under key,
// returning the bytecode for the storing request's own run.
func (s *Server) store(key codecache.Key, prog *ir.Program, resp *CompileResponse) *interp.Code {
	e := &requestEntry{prog: prog, code: interp.NewCode(prog), resp: *resp}
	s.mem.Put(key, e, 256+jit.ProgramBytes(prog)+e.code.Bytes())
	return e.code
}

// entryVerified is the paranoid check of a hit: with the cache in paranoid
// mode every stored function must pass the deep verifier. An entry that
// fails is rejected, counted in the cache's ParanoidRejects, and the caller
// recompiles.
func (s *Server) entryVerified(e *requestEntry, key codecache.Key, machine ir.Machine) bool {
	if !s.mem.Paranoid() {
		return true
	}
	for _, fn := range e.prog.Funcs {
		if guard.VerifyFunc(fn, machine) != nil {
			s.mem.RejectParanoid(key)
			return false
		}
	}
	return true
}
