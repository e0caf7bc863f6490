// Command setmd serves Algorithm SETM as a long-running HTTP/JSON
// mining service: versioned dataset uploads, cancellable mining jobs
// with per-iteration plan reporting, a result cache keyed on (dataset
// version, canonical options), and cost-based admission control that
// bounds the sum of running jobs' estimated memory footprints.
//
// Usage:
//
//	setmd -addr :8080 -membudget 1073741824 -datadir /var/lib/setmd
//
// With -datadir the service is durable: dataset registrations, job
// submissions and terminal states are journaled to a write-ahead log,
// completed results are spilled to disk, and running jobs checkpoint
// their mining iterations as often as the work at risk pays for — a
// kill -9 followed by a restart on the same directory replays the
// journal, restores datasets and finished results, and resumes
// interrupted jobs (from a checkpoint where one was written, from
// scratch otherwise) bit-identically.
//
// A session:
//
//	curl -s --data-binary @sales.txt localhost:8080/datasets
//	curl -s -X POST localhost:8080/jobs -d '{"dataset":"ds-…","minsup":0.01}'
//	curl -s localhost:8080/jobs/job-1?wait=1
//	curl -s localhost:8080/jobs/job-1/result
//
// On SIGINT/SIGTERM the server drains: new jobs are refused with 503,
// running jobs get -drain-timeout to finish, stragglers are cancelled
// (promptly, leak-free), and the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"setm/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "setmd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("setmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	globalBudget := fs.Int64("membudget", 1<<30, "global memory budget in bytes: bounds the sum of admitted jobs' estimated footprints")
	jobBudget := fs.Int64("job-membudget", 64<<20, "default per-job memory budget in bytes for jobs that do not set one")
	maxQueue := fs.Int("max-queue", 16, "jobs allowed to wait for admission before submissions get 429")
	cacheEntries := fs.Int("cache-entries", 128, "result cache capacity (mining results)")
	maxUpload := fs.Int64("max-upload", 1<<30, "maximum dataset upload size in bytes")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits for running jobs before cancelling them")
	dataDir := fs.String("datadir", "", "data directory for durable state (WAL, dataset blobs, results, checkpoints); empty = in-memory only")
	ckptInterval := fs.Int("checkpoint-interval", 0, "0 = pace a durable job's checkpoints by the mining work they protect (checkpoint I/O under ~10% of mining time; a mine of milliseconds writes none); N >= 1 = checkpoint every N-th iteration unconditionally")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "how long a client may take to send request headers (slow-loris guard)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "how long an idle keep-alive connection is kept open")
	writeTimeout := fs.Duration("write-timeout", 10*time.Minute, "per-response write deadline; generous because ?wait=1 long-polls job completion")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	svc, err := server.Open(server.Config{
		GlobalMemBudget:    *globalBudget,
		JobMemBudget:       *jobBudget,
		MaxQueue:           *maxQueue,
		CacheEntries:       *cacheEntries,
		MaxUploadBytes:     *maxUpload,
		DataDir:            *dataDir,
		CheckpointInterval: *ckptInterval,
	})
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc,
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       *idleTimeout,
		WriteTimeout:      *writeTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Log before the goroutine starts: stderr is not synchronized, and a
	// fast SIGTERM would otherwise race this line with the drain notice.
	fmt.Fprintf(stderr, "setmd: listening on %s (global budget %d bytes)\n", *addr, *globalBudget)
	errc := make(chan error, 1)
	go func() {
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		svc.Close()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(stderr, "setmd: draining (up to %v)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	svc.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		svc.Close()
		return err
	}
	return svc.Close()
}
