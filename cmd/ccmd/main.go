// Command ccmd is the long-running compile service: a daemon that keeps
// one shared pipeline driver — and with it one two-tier artifact cache
// and one metrics registry — warm across many compile requests, served
// over HTTP+JSON.
//
// Usage:
//
//	ccmd [-addr HOST:PORT] [-workers N]
//	     [-cache-dir DIR] [-cache-bytes N] [-remote-url URL] [-repro-dir DIR]
//	     [-auth-token TOK | -auth-file PATH]
//	     [-remote-token TOK | -remote-token-file PATH]
//	     [-max-inflight N] [-max-queue N] [-retry-after D]
//	     [-drain-timeout D] [-max-program-bytes N] [-version]
//
// -remote-url attaches a shared remote cache tier (a ccmcached server)
// behind the memory and disk tiers. The tier is an accelerator, never a
// dependency: timeouts, corruption, and outages are absorbed by a
// circuit breaker, and /readyz keeps answering 200, with status
// "degraded" while the breaker is open — the daemon compiles locally
// either way. -remote-token (or
// -remote-token-file) is the bearer token for ccmcached servers
// running with -auth-token.
//
// -auth-token/-auth-file gate this daemon's own data endpoints behind a
// shared-secret bearer token: requests without "Authorization: Bearer
// <token>" get a structured 401. Health probes stay open.
//
// -cache-dir is how a restarted daemon comes back warm: artifacts are
// written to the directory with a temp-file, fsync and rename protocol,
// and the next process on the same directory serves them without
// recompiling.
//
// Endpoints:
//
//	POST /compile   compile one ILOC program; body {"program", "config", "options", "tenant"}
//	POST /run       execute one program on the instrumented simulator
//	GET  /report    the shared driver's cumulative pipeline report
//	GET  /metrics   service admission counters + obs registry snapshot + driver report
//	GET  /trace     Chrome trace-event JSON of recent traced requests (one PID each)
//	GET  /healthz   liveness + storage health ("ok" or "degraded")
//	GET  /readyz    readiness; 503 while draining or with a broken disk cache
//	GET  /version   build identity (same string as ccmc -version)
//
// Admission is a bounded queue: at most -max-inflight requests compile
// at once, at most -max-queue wait, and beyond that the service answers
// 429 with Retry-After. SIGINT/SIGTERM starts a graceful drain:
// readiness flips, new work gets 503, and in-flight compiles finish
// within -drain-timeout before the process exits.
//
// Every compile response's "output" is byte-identical to what a solo
// ccmc run of the same program and configuration prints.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	ccm "ccmem"
	"ccmem/internal/authtoken"
	"ccmem/internal/ccmd"
	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address")
	workers := flag.Int("workers", 0, "shared driver worker pool size (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "persistent artifact cache directory (empty = memory-only)")
	cacheBytes := flag.Int64("cache-bytes", 0, "persistent cache byte budget (0 = default)")
	remoteURL := flag.String("remote-url", "", "remote cache server base URL (empty = no remote tier)")
	remoteToken := flag.String("remote-token", "", "bearer token for the remote cache server (empty = none)")
	remoteTokenFile := flag.String("remote-token-file", "", "file holding the remote cache bearer token")
	authToken := flag.String("auth-token", "", "bearer token required on data endpoints (empty = auth off)")
	authFile := flag.String("auth-file", "", "file holding the bearer token for data endpoints")
	reproDir := flag.String("repro-dir", "", "base directory for per-tenant crash/miscompile repro bundles (empty = disabled)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently running requests (0 = worker pool size)")
	maxQueue := flag.Int("max-queue", 0, "max queued requests before 429 (0 = 4x max-inflight)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on 429/503 responses (0 = 2s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
	maxProgram := flag.Int64("max-program-bytes", 0, "max ILOC program size per request (0 = 1 MiB)")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Println(ccm.Version())
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: ccmd [flags]")
		flag.Usage()
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)

	token, err := authtoken.Load(*authToken, *authFile)
	if err != nil {
		logger.Fatalf("ccmd: %v", err)
	}
	rtoken, err := authtoken.Load(*remoteToken, *remoteTokenFile)
	if err != nil {
		logger.Fatalf("ccmd: %v", err)
	}

	var remoteURLs []string
	if *remoteURL != "" {
		remoteURLs = []string{*remoteURL}
	}
	drv := pipeline.New(pipeline.Options{
		Workers:     *workers,
		CacheDir:    *cacheDir,
		CacheBytes:  *cacheBytes,
		RemoteURLs:  remoteURLs,
		RemoteToken: rtoken,
		Metrics:     obs.NewRegistry(),
	})
	if err := drv.DiskCacheErr(); err != nil {
		// Degraded, not dead: compiles fall back to the memory tier and
		// /healthz reports why.
		logger.Printf("ccmd: warning: persistent cache disabled: %v", err)
	}
	if err := drv.RemoteCacheErr(); err != nil {
		logger.Printf("ccmd: warning: remote cache disabled: %v", err)
	}
	svc, err := ccmd.NewService(ccmd.Config{
		Driver:          drv,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		RetryAfter:      *retryAfter,
		ReproDir:        *reproDir,
		MaxProgramBytes: *maxProgram,
	})
	if err != nil {
		logger.Fatalf("ccmd: %v", err)
	}
	srv, err := ccmd.NewServer(svc, ccmd.ServerConfig{
		Addr:         *addr,
		Version:      ccm.Version(),
		DrainTimeout: *drainTimeout,
		AuthToken:    token,
		Logf:         logger.Printf,
	})
	if err != nil {
		logger.Fatalf("ccmd: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()
	select {
	case err := <-errc:
		if err != nil {
			logger.Fatalf("ccmd: %v", err)
		}
		return
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		logger.Printf("ccmd: shutdown: %v", err)
		os.Exit(1)
	}
	// Flush the remote tier's write-behind queue so artifacts compiled in
	// this daemon's final moments still reach the server.
	fctx, fcancel := context.WithTimeout(context.Background(), *drainTimeout)
	if err := drv.CloseRemote(fctx); err != nil {
		logger.Printf("ccmd: warning: remote cache flush: %v", err)
	}
	fcancel()
	if err := <-errc; err != nil {
		logger.Fatalf("ccmd: %v", err)
	}
}
