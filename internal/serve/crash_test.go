package serve

import (
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"signext/internal/jit"
	"signext/internal/progen"
)

// TestHelperProcessDaemon is not a test: re-executed by
// TestCrashRestartWarmStart with SXELIMD_HELPER=1, it runs a real daemon on
// a unix socket until the parent kills it — with SIGKILL, which is the
// point.
func TestHelperProcessDaemon(t *testing.T) {
	if os.Getenv("SXELIMD_HELPER") != "1" {
		t.Skip("helper process only")
	}
	v, err := jit.ParseVariant("all")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Variant: v, CacheDir: os.Getenv("SXELIMD_CACHEDIR")})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("unix", os.Getenv("SXELIMD_SOCKET"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(l); err != nil {
		t.Fatal(err)
	}
}

// startHelper re-executes the test binary as a daemon and waits for its
// socket to accept.
func startHelper(t *testing.T, socket, cacheDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcessDaemon$")
	cmd.Env = append(os.Environ(),
		"SXELIMD_HELPER=1",
		"SXELIMD_SOCKET="+socket,
		"SXELIMD_CACHEDIR="+cacheDir,
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("unix", socket, 100*time.Millisecond)
		if err == nil {
			conn.Close()
			return cmd
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("daemon socket never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashRestartWarmStart is the crash-safety end-to-end: a daemon is
// killed with SIGKILL while serving concurrent traffic, restarted over the
// same cache directory, and must (a) answer every replayed request exactly
// as before the crash and (b) answer them warm — served off the disk store
// the crash could not corrupt.
func TestCrashRestartWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	// Unix socket paths are length-limited (~104 bytes); t.TempDir can
	// exceed that under long test names.
	dir, err := os.MkdirTemp("", "sxd")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	socket := filepath.Join(dir, "s.sock")
	cacheDir := filepath.Join(dir, "cache")

	progs := make([]string, 8)
	for i := range progs {
		progs[i] = progen.MiniJava(int64(7000+i), progen.Config{Stmts: 6, Funcs: 2})
	}

	// Round 1: populate the cache, record the answers.
	cmd := startHelper(t, socket, cacheDir)
	c := Dial("unix", socket)
	want := make([]*CompileResponse, len(progs))
	for i, src := range progs {
		resp, err := c.Compile(context.Background(), &CompileRequest{Source: src, Run: true})
		if err != nil {
			t.Fatalf("prog %d: %v", i, err)
		}
		want[i] = resp
	}

	// Kill -9 while a concurrent wave is inflight. Those requests may fail
	// with connection errors — a killed daemon gives no answer, it must
	// never give a wrong one.
	var wg sync.WaitGroup
	for _, src := range progs {
		wg.Add(1)
		go func(src string) {
			defer wg.Done()
			cc := Dial("unix", socket)
			cc.MaxRetries = 0
			cc.Compile(context.Background(), &CompileRequest{Source: src, Run: true})
		}(src)
	}
	time.Sleep(5 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	wg.Wait()
	os.Remove(socket)

	// Round 2: restart over the same cache dir; replay.
	cmd2 := startHelper(t, socket, cacheDir)
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	c2 := Dial("unix", socket)
	for i, src := range progs {
		resp, err := c2.Compile(context.Background(), &CompileRequest{Source: src, Run: true})
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		w := want[i]
		if resp.Output != w.Output || resp.Trap != w.Trap ||
			resp.Eliminated != w.Eliminated || resp.StaticExts != w.StaticExts ||
			resp.DynamicExts != w.DynamicExts || resp.Cycles != w.Cycles {
			t.Errorf("replay %d: answer changed across crash:\n pre: %+v\npost: %+v", i, w, resp)
		}
	}
	st, err := c2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Disk == nil || st.Disk.Loads == 0 {
		t.Fatalf("restart answered cold: no warm hits from the disk store (disk: %+v)", st.Disk)
	}
	t.Logf("restart warm: %d disk loads, cache %+v", st.Disk.Loads, st.Cache)
}
