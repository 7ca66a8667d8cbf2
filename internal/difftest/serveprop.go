package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"signext/internal/guard"
	"signext/internal/jit"
	"signext/internal/serve"
)

// serveDetail checks the serve-identity property for one program on one
// machine: the compile daemon, driven through its real HTTP handler, must
// answer exactly what the direct jit compile produced — same static
// statistics, same output, same trap — uncached, and cold, all-hit and
// request-entry-hit against the default cache; and a request forced onto the
// degraded floor by a hostile deadline must still reproduce the reference
// output. It returns "" when the property holds, a diagnostic otherwise.
func serveDetail(s *subject) string {
	p, mach, res, rep := s.p, s.mach, s.res, s.rep
	req := serve.CompileRequest{
		Machine:  mach.String(),
		Run:      true,
		MaxSteps: s.cfg.MaxSteps,
	}
	if p.Kind == "mj" {
		req.Source = p.Source
	} else {
		req.IR = formatProgram(p.Prog)
	}

	// Healthy request: full identity with the direct compile.
	srv, err := serve.New(serve.Config{Variant: jit.All, Machine: mach, CacheBytes: -1})
	if err != nil {
		return fmt.Sprintf("daemon construction failed: %v", err)
	}
	resp, detail := post(srv, req)
	if detail != "" {
		return detail
	}
	if d := compileIdentity("daemon", resp, res, rep); d != "" {
		return d
	}

	// Cached requests: the same program three times against the default
	// cache. The first compiles cold, the second from per-function hits and
	// stores a request entry, the third is answered from that entry. Each
	// must equal the direct compile.
	csrv, err := serve.New(serve.Config{Variant: jit.All, Machine: mach})
	if err != nil {
		return fmt.Sprintf("cached daemon construction failed: %v", err)
	}
	for i, who := range []string{"cold", "all-hit", "entry-hit"} {
		before := csrv.Stats().Cache
		cresp, detail := post(csrv, req)
		if detail != "" {
			return who + " request: " + detail
		}
		if d := compileIdentity(who+" daemon", cresp, res, rep); d != "" {
			return d
		}
		after := csrv.Stats().Cache
		entryHit := after.Hits-before.Hits == 1 && after.Misses == before.Misses
		if entryHit != (i == 2) {
			return fmt.Sprintf("%s request: served from a request entry = %v (cache %+v -> %+v)", who, entryHit, before, after)
		}
	}

	// Degraded request: a 1 ms deadline under a much longer injected stall
	// floors every function — and the floored answer must still match the
	// reference run. Degraded, never wrong, via the same HTTP surface.
	dsrv, err := serve.New(serve.Config{
		Variant: jit.All, Machine: mach, CacheBytes: -1,
		FaultDelay: func() time.Duration { return 20 * time.Millisecond },
	})
	if err != nil {
		return fmt.Sprintf("degraded daemon construction failed: %v", err)
	}
	dreq := req
	dreq.DeadlineMS = 1
	dresp, detail := post(dsrv, dreq)
	if detail != "" {
		return "degraded request: " + detail
	}
	if !dresp.Degraded || len(dresp.DegradedFuncs) == 0 {
		return fmt.Sprintf("hostile deadline did not degrade (funcs %v)", dresp.DegradedFuncs)
	}
	if d := runIdentity("degraded daemon", dresp, rep.RefOutput, rep.RefErr != nil); d != "" {
		return d
	}
	return ""
}

// compileIdentity compares an undegraded daemon answer with the direct
// compile: the same static statistics, then the same output and trap.
func compileIdentity(who string, resp *serve.CompileResponse, res *jit.Result, rep *guard.Report) string {
	if resp.Degraded {
		return fmt.Sprintf("%s degraded without any pressure (funcs %v, fallbacks %d)", who, resp.DegradedFuncs, resp.Fallbacks)
	}
	if resp.Eliminated != res.Stats.Eliminated || resp.Inserted != res.Stats.Inserted || resp.StaticExts != res.StaticExts {
		return fmt.Sprintf("%s static results differ: daemon (elim %d, ins %d, exts %d), direct (elim %d, ins %d, exts %d)",
			who, resp.Eliminated, resp.Inserted, resp.StaticExts,
			res.Stats.Eliminated, res.Stats.Inserted, res.StaticExts)
	}
	return runIdentity(who, resp, rep.OptOutput, rep.OptErr != nil)
}

// runIdentity compares a daemon answer's dynamic half against an expected
// output and trap disposition.
func runIdentity(who string, resp *serve.CompileResponse, wantOut string, wantTrap bool) string {
	if (resp.Trap != "") != wantTrap {
		return fmt.Sprintf("%s trap mismatch: daemon %q, expected trap=%v", who, resp.Trap, wantTrap)
	}
	if resp.Output != wantOut {
		return fmt.Sprintf("%s output mismatch:\ndaemon %q\nexpected %q", who, resp.Output, wantOut)
	}
	return ""
}

// post drives one request through the daemon's HTTP handler.
func post(srv *serve.Server, req serve.CompileRequest) (*serve.CompileResponse, string) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Sprintf("marshal request: %v", err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Sprintf("daemon answered %d: %s", rec.Code, rec.Body.String())
	}
	var resp serve.CompileResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Sprintf("unmarshal answer: %v", err)
	}
	return &resp, ""
}
