package obs

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer serves the metrics registry as a Prometheus text exposition
// at /metrics and the standard pprof endpoints under /debug/pprof/, on its
// own mux (nothing leaks into http.DefaultServeMux). It is opt-in via the
// -debug-addr flag and meant for interactive inspection of a long run, not
// production exposure.
type DebugServer struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// ServeDebug starts a DebugServer on addr (e.g. "localhost:6060"; use
// port 0 to pick a free port) serving reg's live snapshot. The caller
// must Close it.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		if err := WriteProm(w, reg.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener on %s: %w", addr, err)
	}
	d := &DebugServer{
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() { //lint:allow gosync joined cross-function: Close blocks on d.done until Serve returns
		defer close(d.done)
		// Serve returns ErrServerClosed after Close; any other error is
		// already surfaced to clients, so the goroutine just exits.
		_ = d.srv.Serve(ln)
	}()
	return d, nil
}

// Addr returns the server's bound address (useful with port 0).
func (d *DebugServer) Addr() string {
	if d == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Close shuts the server down immediately and waits for the serve
// goroutine to exit, so callers can assert no goroutine leaks. Close
// (rather than Shutdown) needs no context: the debug server holds no
// state worth draining. Nil-safe.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	err := d.srv.Close()
	<-d.done
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("obs: close debug server: %w", err)
	}
	return nil
}
