// Command ccmcached is the remote artifact cache daemon: one
// content-addressed entry store shared by compile processes (ccmd,
// ccmbench) over HTTP.
//
// Usage:
//
//	ccmcached [-addr HOST:PORT] [-dir DIR] [-max-bytes N]
//	          [-max-entry-bytes N] [-auth-token TOK | -auth-file PATH]
//	          [-drain-timeout D] [-version]
//
// Endpoints:
//
//	GET  /entry/{key}?kind=N   fetch one entry (self-verifying encoding)
//	PUT  /entry/{key}?kind=N   store one entry; verified before storing
//	GET  /stats                server + store counters (JSON)
//	GET  /healthz              liveness
//	GET  /readyz               readiness + store detail; 503 when the disk degraded
//	GET  /version              build identity (same string as ccmc -version)
//
// The wire format is the disk-cache entry encoding: versioned header,
// embedded key and kind, SHA-256 trailer. Uploads are verified before
// they are stored (corrupt or mis-addressed entries get a structured
// 422 and never touch the store) and reads are verified again by the
// backing store, which quarantines anything that rotted on disk.
// SIGINT/SIGTERM drains in-flight requests before exiting.
//
// -auth-token/-auth-file gate the data endpoints (/entry/*, /stats)
// behind a shared-secret bearer token; health probes stay open. Clients
// (ccmd -remote-token, ccmbench -remote-token) present the same secret.
//
// -max-bytes bounds the store: entries are evicted least recently used
// once it is full.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	ccm "ccmem"
	"ccmem/internal/authtoken"
	"ccmem/internal/remotecache"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8348", "listen address")
	dir := flag.String("dir", "", "entry store directory (required)")
	maxBytes := flag.Int64("max-bytes", 0, "store LRU byte budget (<= 0 = 256 MiB)")
	maxEntry := flag.Int64("max-entry-bytes", 0, "max uploaded entry size (0 = 64 MiB)")
	authToken := flag.String("auth-token", "", "bearer token required on data endpoints (empty = auth off)")
	authFile := flag.String("auth-file", "", "file holding the bearer token for data endpoints")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Println(ccm.Version())
		return
	}
	if flag.NArg() != 0 || *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: ccmcached -dir DIR [flags]")
		flag.Usage()
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)

	token, err := authtoken.Load(*authToken, *authFile)
	if err != nil {
		logger.Fatalf("ccmcached: %v", err)
	}
	srv, err := remotecache.NewServer(*dir, remotecache.ServerOptions{
		MaxBytes:      *maxBytes,
		MaxEntryBytes: *maxEntry,
		AuthToken:     token,
	})
	if err != nil {
		logger.Fatalf("ccmcached: %v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("ccmcached: listen %s: %v", *addr, err)
	}
	hs := &http.Server{
		Handler:           srv.Handler(ccm.Version()),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("ccmcached: listening on %s (store %s)", ln.Addr(), *dir)
		err := hs.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		errc <- err
	}()
	select {
	case err := <-errc:
		if err != nil {
			logger.Fatalf("ccmcached: %v", err)
		}
		return
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
	}
	logger.Printf("ccmcached: draining (timeout %s)", *drainTimeout)
	// Refuse new data requests with 503 draining + Retry-After before the
	// listener starts closing, so clients get a structured refusal
	// instead of torn connections.
	srv.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		logger.Printf("ccmcached: drain deadline exceeded: %v", err)
		_ = hs.Close()
		os.Exit(1)
	}
	if err := <-errc; err != nil {
		logger.Fatalf("ccmcached: %v", err)
	}
	logger.Printf("ccmcached: drained cleanly")
}
