// Command joinworker hosts a set of joiner tasks behind a transport
// listener: one process of the distributed operator's worker tier. The
// coordinator (a stage built with WithWorkers, or joinrun -workers)
// dials it, sends the job description, and streams data and migration
// envelopes; which joiner ids this process hosts is decided by the
// coordinator's placement, not flags. The process serves exactly one
// coordinator session and exits — clean streams exit 0, a coordinator
// link failure exits 1 with the typed transport error.
//
// Usage:
//
//	joinworker [-listen 127.0.0.1:0] [-spilldir DIR]
//
// The actual bound address (relevant with a :0 port) is printed as
// "joinworker: listening ADDR" on stdout before the first accept.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	squall "repro"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "listen address (host:port; :0 picks a free port)")
	spillDir := flag.String("spilldir", "", "local spill directory for budgeted stores (default: OS temp)")
	flag.Parse()

	ws, err := squall.NewWorkerServer(*listen, squall.WithStorage(squall.StorageConfig{Dir: *spillDir}))
	if err != nil {
		fmt.Fprintf(os.Stderr, "joinworker: %v\n", err)
		os.Exit(1)
	}
	defer ws.Close() // drop: Serve has returned the session's result; this only releases the listener on exit
	fmt.Printf("joinworker: listening %s\n", ws.Addr())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := ws.Serve(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "joinworker: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("joinworker: session complete")
}
