// Package cli holds the few behaviors the misp command-line tools
// share: interruptible runs via a signal-driven context, profiles, and
// comma-separated list flags.
package cli

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// SignalContext returns a context that is canceled on the first SIGINT
// or SIGTERM, letting an in-flight simulation stop at its next event
// horizon and the caller clean up partial outputs. A second signal
// hard-exits with status 130 for runs that are stuck or mid-cleanup.
//
// The returned cancel releases the signal handler; call it when the
// run finishes so a later Ctrl-C behaves normally again.
func SignalContext(name string) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(context.Background())
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "%s: %v: canceling run (signal again to hard-exit)\n", name, s)
			cancel(fmt.Errorf("%s: interrupted by %v", name, s))
			<-sig
			fmt.Fprintf(os.Stderr, "%s: second signal, hard exit\n", name)
			os.Exit(130)
		case <-ctx.Done():
			signal.Stop(sig)
		}
	}()
	return ctx, func() { cancel(nil) }
}
