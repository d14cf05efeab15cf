// Command stronghold-serve runs the capacity-planning HTTP server:
// the STRONGHOLD simulator as a service. It answers the questions the
// one-shot CLIs answer — the §III-D working-window decision, the
// Figure 6 capacity table, fault-plan what-ifs — over HTTP/JSON, with
// a canonical-request result cache so repeat queries are served
// byte-identical without re-simulating:
//
//	stronghold-serve -addr :8080
//	curl -s localhost:8080/v1/solve -d '{"model":{"size_billions":10}}'
//	curl -s localhost:8080/v1/capacity -d '{"platform":"v100"}'
//	curl -s localhost:8080/v1/methods
//	curl -s localhost:8080/metrics
//
// This package owns every goroutine and wall-clock read in the
// serving stack — the net/http listener, the shutdown signal wait,
// the drain timeout — the same split between simulation code and its
// wall-clock driver that internal/bench and hostbench/ use, so
// internal/serve stays outside the simulation determinism scopes
// (stronghold-vet's wallclock/enginepure rules) and its responses
// remain pure functions of the request.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stronghold/internal/serve"
	"stronghold/internal/serve/backend"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-stop
		close(done)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, done))
}

// run starts the server and blocks until stop closes or the listener
// fails. It is main() minus signal wiring, so tests can drive a full
// serve-and-shutdown cycle against a real listener on ":0".
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("stronghold-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	cache := fs.Int("cache", 256, "result cache size in entries (negative disables)")
	pool := fs.Int("pool", 4, "max concurrent simulations (excess requests get 429)")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "stronghold-serve takes no positional arguments")
		return 2
	}

	srv := serve.New(backend.Sim{}, serve.Options{
		CacheSize:     *cache,
		MaxConcurrent: *pool,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "stronghold-serve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "stronghold-serve listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "stronghold-serve: %v\n", err)
		return 1
	case <-stop:
	}

	// Two-stage drain: the listener stops accepting and waits out open
	// connections, then the server waits out in-flight handlers.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "stronghold-serve: shutdown: %v\n", err)
		srv.Shutdown()
		return 1
	}
	srv.Shutdown()
	fmt.Fprintln(stdout, "stronghold-serve: drained")
	return 0
}
