// Package quicserver implements a runnable QUIC handshake server over
// UDP, modelled on the NGINX deployment the paper benchmarks in
// Table 1: a fixed pool of workers with bounded per-worker connection
// queues, hash-based datagram steering (standing in for the eBPF
// socket steering the paper mentions), and optional RETRY address
// validation.
//
// The server completes real RFC 9001 handshakes (package
// internal/handshake); its resource-exhaustion behaviour under Initial
// floods is what cmd/floodbench measures.
package quicserver

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"

	"net"
	"sync"
	"sync/atomic"
	"time"

	"quicsand/internal/handshake"
	"quicsand/internal/quiccrypto"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

// Config parameterizes the server.
type Config struct {
	// Identity is the TLS identity; required.
	Identity *tlsmini.Identity
	// Workers is the worker-pool size; default 4 (the paper's small
	// configuration; "auto" mode passes runtime.NumCPU()).
	Workers int
	// QueuePerWorker bounds each worker's pending-connection queue;
	// default 1024 (the paper's configuration, twice NGINX's default).
	QueuePerWorker int
	// EnableRetry turns on stateless address validation.
	EnableRetry bool
	// AdaptiveRetryThreshold, when positive, enables the adaptive
	// deployment the paper's §6 proposes: RETRY activates only once a
	// worker's connection table exceeds this fraction (0–1) of its
	// queue capacity, so the extra round trip is paid only under
	// attack. Ignored when EnableRetry is set (always-on wins).
	AdaptiveRetryThreshold float64
	// TokenLifetime bounds token validity. Default 30 s.
	TokenLifetime time.Duration
	// SupportedVersions defaults to wire.DefaultSupportedVersions.
	SupportedVersions []wire.Version
	// Now allows tests to control the clock.
	Now func() time.Time
}

// Metrics counts server activity; all fields are atomically updated.
type Metrics struct {
	Datagrams    atomic.Uint64
	Initials     atomic.Uint64
	RetriesSent  atomic.Uint64
	VNSent       atomic.Uint64
	Accepted     atomic.Uint64 // connections admitted to a worker queue
	Dropped      atomic.Uint64 // connections rejected (queue full)
	Responses    atomic.Uint64 // datagrams sent
	Handshakes   atomic.Uint64 // completed handshakes
	BadDatagrams atomic.Uint64
}

// Server is a QUIC handshake responder bound to a PacketConn.
type Server struct {
	cfg  Config
	conn net.PacketConn
	// retryKey authenticates Retry tokens: 32 bytes from crypto/rand,
	// fresh per server.
	retryKey [32]byte

	Metrics Metrics

	workers  []*worker
	wg       sync.WaitGroup // the workers
	readDone chan struct{}  // closed when readLoop returns
	closed   atomic.Bool
}

type inbound struct {
	data []byte
	addr net.Addr
}

// worker owns a shard of connections, mirroring an NGINX worker
// process with its listen-socket share.
type worker struct {
	srv   *Server
	queue chan inbound
	// conns indexes each connection twice: by the client's SCID (for
	// duplicate Initials) and by our own SCID (the DCID of the
	// client's Handshake packets). active counts distinct connections
	// against the queue limit.
	conns  map[string]*handshake.ServerConn
	active int
}

// New creates a server on conn. Close the server, not the conn.
func New(conn net.PacketConn, cfg Config) (*Server, error) {
	if cfg.Identity == nil {
		return nil, errors.New("quicserver: identity required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueuePerWorker <= 0 {
		cfg.QueuePerWorker = 1024
	}
	if cfg.TokenLifetime == 0 {
		cfg.TokenLifetime = 30 * time.Second
	}
	if len(cfg.SupportedVersions) == 0 {
		cfg.SupportedVersions = wire.DefaultSupportedVersions
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{cfg: cfg, conn: conn, readDone: make(chan struct{})}
	if _, err := rand.Read(s.retryKey[:]); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			srv:   s,
			queue: make(chan inbound, cfg.QueuePerWorker),
			conns: make(map[string]*handshake.ServerConn),
		}
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go w.run()
	}
	go s.readLoop()
	return s, nil
}

// Close stops the server and releases the socket. Every datagram read
// before Close is answered: the socket closes after the workers are
// joined. The worker queues close only after readLoop has returned: a
// datagram it read just before it stopped is still being queued, and a
// send on a closed channel panics even inside a select with a default.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// The read loop is stopped by a deadline, not by closing the socket:
	// the workers still hold datagrams it read, and their replies need
	// the socket until the workers are joined.
	if err := s.conn.SetReadDeadline(time.Now()); err != nil {
		s.conn.Close()
	}
	<-s.readDone
	for _, w := range s.workers {
		close(w.queue)
	}
	s.wg.Wait()
	return s.conn.Close()
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.conn.LocalAddr() }

func (s *Server) readLoop() {
	defer close(s.readDone)
	buf := make([]byte, 65535)
	for {
		n, addr, err := s.conn.ReadFrom(buf)
		if err != nil {
			return // Close's deadline, or the socket closed
		}
		s.Metrics.Datagrams.Add(1)
		data := make([]byte, n)
		copy(data, buf[:n])

		// eBPF-style steering: shard on source address so one client's
		// datagrams always reach the same worker.
		w := s.workers[addrHash(addr)%uint64(len(s.workers))]
		select {
		case w.queue <- inbound{data: data, addr: addr}:
		default:
			// Queue full: the resource-exhaustion condition the paper
			// demonstrates. The datagram is dropped on the floor.
			s.Metrics.Dropped.Add(1)
		}
	}
}

func addrHash(a net.Addr) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(a.String()) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func (w *worker) run() {
	defer w.srv.wg.Done()
	for in := range w.queue {
		w.handle(in)
	}
}

func (w *worker) handle(in inbound) {
	s := w.srv
	data := in.data
	if !wire.IsLongHeader(data) {
		return // 1-RTT and junk: no handshake work
	}
	h, err := wire.ParseLongHeader(data)
	if err != nil {
		s.Metrics.BadDatagrams.Add(1)
		return
	}

	switch h.Type {
	case wire.PacketTypeInitial:
		if len(data) < handshake.MinInitialDatagramSize {
			s.Metrics.BadDatagrams.Add(1)
			return // anti-amplification: drop small Initials
		}
		if !versionSupported(s.cfg.SupportedVersions, h.Version) {
			vn := wire.AppendVersionNegotiation(nil, h.DstConnID, h.SrcConnID, s.cfg.SupportedVersions, byte(addrHash(in.addr)))
			s.send(vn, in.addr)
			s.Metrics.VNSent.Add(1)
			return
		}
		s.Metrics.Initials.Add(1)
		w.handleInitial(h, in)

	case wire.PacketTypeHandshake:
		key := connKey(in.addr, h.DstConnID)
		if conn := w.conns[key]; conn != nil {
			wasDone := conn.Done()
			out, err := conn.HandleDatagram(data)
			if err != nil {
				delete(w.conns, key)
				return
			}
			for _, d := range out {
				s.send(d, in.addr)
			}
			if !wasDone && conn.Done() {
				s.Metrics.Handshakes.Add(1)
			}
		}
	}
}

// retryActive reports whether this worker currently demands address
// validation: either always (EnableRetry) or adaptively under load.
func (w *worker) retryActive() bool {
	s := w.srv
	if s.cfg.EnableRetry {
		return true
	}
	if s.cfg.AdaptiveRetryThreshold > 0 {
		return float64(w.active) >= s.cfg.AdaptiveRetryThreshold*float64(s.cfg.QueuePerWorker)
	}
	return false
}

func (w *worker) handleInitial(h *wire.Header, in inbound) {
	s := w.srv

	retryOn := w.retryActive()
	if retryOn && len(h.Token) == 0 {
		// Stateless address validation: no per-connection state is
		// allocated before the client echoes a valid token.
		scid := make(wire.ConnectionID, 8)
		binary.BigEndian.PutUint64(scid, addrHash(in.addr)^uint64(s.cfg.Now().UnixNano()))
		token := s.mintToken(in.addr, h.DstConnID)
		retry, err := quiccrypto.BuildRetry(h.Version, h.SrcConnID, scid, h.DstConnID, token)
		if err != nil {
			return
		}
		s.send(retry, in.addr)
		s.Metrics.RetriesSent.Add(1)
		return
	}
	if len(h.Token) > 0 {
		// Tokens are validated whenever present, so clients that
		// received a Retry during a load spike still complete after
		// the spike subsides.
		if !s.validateToken(in.addr, h.Token) {
			s.Metrics.BadDatagrams.Add(1)
			return
		}
	}

	key := connKey(in.addr, h.SrcConnID)
	conn := w.conns[key]
	isNew := conn == nil
	if isNew {
		if w.active >= s.cfg.QueuePerWorker {
			// Connection table full: the state-overflow condition.
			s.Metrics.Dropped.Add(1)
			return
		}
		var err error
		conn, err = handshake.NewServerConn(handshake.ServerConfig{Identity: s.cfg.Identity}, h.Version, h.DstConnID, h.SrcConnID)
		if err != nil {
			s.Metrics.BadDatagrams.Add(1)
			return
		}
		w.conns[key] = conn
		w.active++
		s.Metrics.Accepted.Add(1)
	}
	out, err := conn.HandleDatagram(in.data)
	if err != nil {
		delete(w.conns, key)
		delete(w.conns, connKey(in.addr, conn.SourceCID()))
		w.active--
		s.Metrics.BadDatagrams.Add(1)
		return
	}
	for _, d := range out {
		s.send(d, in.addr)
	}
	if isNew {
		// The client's Handshake packets will carry our SCID as their
		// destination; index the connection under it as well.
		w.conns[connKey(in.addr, conn.SourceCID())] = conn
	}
}

func (s *Server) send(data []byte, addr net.Addr) {
	if _, err := s.conn.WriteTo(data, addr); err == nil {
		s.Metrics.Responses.Add(1)
	}
}

func connKey(addr net.Addr, cid wire.ConnectionID) string {
	return addr.String() + "|" + string(cid)
}

func versionSupported(vs []wire.Version, v wire.Version) bool {
	for _, s := range vs {
		if s == v {
			return true
		}
	}
	return false
}

// mintToken binds client address, original DCID and expiry under HMAC.
func (s *Server) mintToken(addr net.Addr, odcid wire.ConnectionID) []byte {
	expiry := s.cfg.Now().Add(s.cfg.TokenLifetime).Unix()
	var buf []byte
	buf = binary.BigEndian.AppendUint64(buf, uint64(expiry))
	buf = append(buf, byte(len(odcid)))
	buf = append(buf, odcid...)
	mac := hmac.New(sha256.New, s.retryKey[:])
	mac.Write(buf)
	mac.Write([]byte(addrIP(addr)))
	return append(buf, mac.Sum(nil)...)
}

// validateToken checks HMAC and expiry.
func (s *Server) validateToken(addr net.Addr, token []byte) bool {
	if len(token) < 8+1+sha256.Size {
		return false
	}
	odcidLen := int(token[8])
	if len(token) != 8+1+odcidLen+sha256.Size {
		return false
	}
	body, sig := token[:8+1+odcidLen], token[8+1+odcidLen:]
	mac := hmac.New(sha256.New, s.retryKey[:])
	mac.Write(body)
	mac.Write([]byte(addrIP(addr)))
	if !hmac.Equal(mac.Sum(nil), sig) {
		return false
	}
	expiry := int64(binary.BigEndian.Uint64(token[:8]))
	return s.cfg.Now().Unix() <= expiry
}

// addrIP extracts the IP portion so tokens survive port changes by
// NATs rebinding the same host.
func addrIP(a net.Addr) string {
	if u, ok := a.(*net.UDPAddr); ok {
		return u.IP.String()
	}
	host, _, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String()
	}
	return host
}
