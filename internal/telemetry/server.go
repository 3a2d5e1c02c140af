package telemetry

import (
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Server is the live exposition endpoint: /metrics serves the
// Prometheus text format (progress gauges while the run is live, the
// full merged Snapshot once SetFinal is called) and /debug/pprof/*
// serves the standard profiling handlers. It owns its listener and
// mux, so closing it tears down everything it started.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}

	mu       sync.Mutex
	live     *Live
	progress Progress
	hasProg  bool
	final    *Snapshot
}

// NewServer listens on addr and starts serving /metrics and
// /debug/pprof. live may be nil when only a final snapshot will be
// exposed. Use Addr to discover the bound address (addr may use port
// 0) and Close to shut down.
func NewServer(addr string, live *Live) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, done: make(chan struct{}), live: live}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	}()
	return s, nil
}

// Addr returns the address the server is listening on.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetProgress publishes a heartbeat sample to /metrics.
func (s *Server) SetProgress(p Progress) {
	s.mu.Lock()
	s.progress = p
	s.hasProg = true
	s.mu.Unlock()
}

// SetFinal publishes the merged end-of-run snapshot to /metrics.
func (s *Server) SetFinal(snap *Snapshot) {
	s.mu.Lock()
	s.final = snap
	s.mu.Unlock()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	s.mu.Lock()
	p, hasProg := s.progress, s.hasProg
	final := s.final
	live := s.live
	s.mu.Unlock()

	// Live counters are sampled fresh on every scrape; the heartbeat's
	// derived gauges (rate, skew, heap) refresh at its cadence.
	if live != nil {
		t, counts := live.totals()
		promCounter(w, "quicsand_live_packets_total", "Packets observed so far.", t.Packets)
		promCounter(w, "quicsand_live_bytes_total", "Payload bytes observed so far.", t.Bytes)
		promCounter(w, "quicsand_live_non_quic_total", "Non-QUIC datagrams observed so far.", t.NonQUIC)
		promCounter(w, "quicsand_live_alerts_total", "Detector alert episodes opened so far.", t.Alerts)
		promShards(w, "quicsand_live_shard_packets_total", "Packets observed per shard so far.", counts)
	}
	if hasProg {
		promGaugeF(w, "quicsand_progress_packets_per_sec", "Throughput at the last heartbeat.", p.PacketsPerSec)
		promGaugeF(w, "quicsand_progress_shard_skew", "Max/mean shard packet ratio at the last heartbeat.", p.Skew)
		promGaugeF(w, "quicsand_progress_heap_bytes", "Heap in use at the last heartbeat.", float64(p.HeapBytes))
		promGaugeF(w, "quicsand_progress_goroutines", "Goroutines at the last heartbeat.", float64(p.Goroutines))
	}
	if final != nil {
		final.WritePrometheus(w, "quicsand")
	}
}

// Close stops the listener and waits for the serve goroutine to exit,
// so a start/stop cycle leaves no goroutines behind.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
