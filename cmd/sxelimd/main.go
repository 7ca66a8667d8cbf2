// Command sxelimd is the fault-tolerant compile daemon: a long-lived server
// exposing the sign-extension-elimination jit over HTTP on a unix socket or
// TCP address. It accepts concurrent compile/run requests, bounds its queue
// (overload is answered 429 + Retry-After, not goroutine growth), floors
// deadline-blown compiles to guarded Convert64-only code instead of failing
// them, keeps its warm set in a crash-safe on-disk cache that survives
// kill -9, and drains gracefully on SIGTERM.
//
// Usage:
//
//	sxelimd -socket /run/sxelimd.sock -cache-dir /var/cache/sxelimd
//	sxelimd -listen 127.0.0.1:7878 -cache-mb 128 -deadline 500ms
//
// Endpoints: POST /compile, GET /healthz, GET /statsz.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/serve"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sigs, nil))
}

// run is main minus the process plumbing: tests drive it with their own
// signal channel and read the bound address off ready.
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal, ready chan<- net.Addr) int {
	fs := flag.NewFlagSet("sxelimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		socket     = fs.String("socket", "", "unix socket path to listen on")
		listen     = fs.String("listen", "", "TCP address to listen on (e.g. 127.0.0.1:7878)")
		variant    = fs.String("variant", "all", "default optimization variant")
		machine    = fs.String("machine", "ia64", "default machine model: ia64 or ppc64")
		cacheMB    = fs.Int64("cache-mb", 64, "in-memory cache budget in MiB (0 disables caching)")
		cacheDir   = fs.String("cache-dir", "", "crash-safe disk cache directory (empty: memory only)")
		shards     = fs.Int("shards", 0, "cache shard count (0: default)")
		deadline   = fs.Duration("deadline", 2*time.Second, "default per-request compile deadline")
		maxDead    = fs.Duration("max-deadline", 30*time.Second, "upper bound on requested deadlines")
		inflight   = fs.Int("max-inflight", 0, "concurrent compile slots (0: GOMAXPROCS)")
		queue      = fs.Int("max-queue", 64, "requests allowed to wait for a slot (-1: none)")
		paranoid   = fs.Bool("paranoid", false, "re-verify every cache hit with the deep verifier")
		elimBudget = fs.Int("elim-budget", 0, "per-function elimination work cap (0: unlimited)")
		drainWait  = fs.Duration("drain-timeout", 30*time.Second, "how long to wait for inflight requests on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*socket == "") == (*listen == "") {
		fmt.Fprintln(stderr, "sxelimd: exactly one of -socket or -listen is required")
		return 2
	}

	v, err := jit.ParseVariant(*variant)
	if err != nil {
		fmt.Fprintf(stderr, "sxelimd: %v\n", err)
		return 2
	}
	m, err := ir.ParseMachine(*machine)
	if err != nil {
		fmt.Fprintf(stderr, "sxelimd: %v\n", err)
		return 2
	}

	cacheBytes := *cacheMB << 20
	if *cacheMB <= 0 {
		cacheBytes = -1
	}
	srv, err := serve.New(serve.Config{
		Variant:         v,
		Machine:         m,
		CacheBytes:      cacheBytes,
		Shards:          *shards,
		CacheDir:        *cacheDir,
		Paranoid:        *paranoid,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDead,
		MaxInflight:     *inflight,
		MaxQueue:        *queue,
		ElimBudget:      *elimBudget,
	})
	if err != nil {
		fmt.Fprintf(stderr, "sxelimd: %v\n", err)
		return 1
	}

	network, addr := "tcp", *listen
	if *socket != "" {
		network, addr = "unix", *socket
		// A previous unclean death (kill -9) leaves the socket file
		// behind; listening would fail on it. The cache is designed for
		// that crash — the socket file is just debris.
		os.Remove(addr)
	}
	l, err := net.Listen(network, addr)
	if err != nil {
		fmt.Fprintf(stderr, "sxelimd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "sxelimd: serving on %s://%s (variant %q, machine %s)\n",
		network, l.Addr(), *variant, m)
	if ready != nil {
		ready <- l.Addr()
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	select {
	case sig := <-sigs:
		fmt.Fprintf(stdout, "sxelimd: %v, draining (up to %s)\n", sig, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(stderr, "sxelimd: drain: %v\n", err)
			return 1
		}
		<-done
	case err := <-done:
		if err != nil {
			fmt.Fprintf(stderr, "sxelimd: %v\n", err)
			return 1
		}
	}
	if *socket != "" {
		os.Remove(*socket)
	}
	st := srv.Stats()
	fmt.Fprintf(stdout, "sxelimd: drained; served %d (degraded %d, rejected %d), cache hit rate %.2f\n",
		st.Served, st.Degraded, st.Rejected, st.Cache.HitRate())
	return 0
}
