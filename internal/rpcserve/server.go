package rpcserve

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"morphstream/internal/engine"
	"morphstream/internal/telemetry"
	"morphstream/internal/txn"
)

// Config parameterises a Server.
type Config struct {
	// Engine configures the embedded engine. The server owns the result
	// sink (receipt fan-out rides on it), so Engine.Sink must be nil.
	Engine engine.Config
	// Options are extra engine options (WithFusion, WithDurability, ...);
	// a WithResultSink here is overridden by the server's own sink.
	Options []engine.Option
	// MaxPayload bounds a Submit payload; 0 means DefaultMaxPayload.
	MaxPayload uint32
	// WriteTimeout bounds each socket write to a client. A client that
	// stops reading its receipts stalls its session's writer; when the
	// stall exceeds this bound the session is killed so receipt fan-out
	// for other connections never blocks on it. 0 means 10s.
	WriteTimeout time.Duration
	// ReadTimeout, when > 0, bounds the idle time between frames from a
	// client; 0 (the default) lets sessions idle forever.
	ReadTimeout time.Duration
	// Logf, when non-nil, receives one line per session lifecycle event.
	Logf func(format string, args ...any)
}

// defaultWriteTimeout bounds receipt writes when Config leaves
// WriteTimeout unset.
const defaultWriteTimeout = 10 * time.Second

// sessionOutbound is the per-session outbound queue depth in frames. A
// session gets one Receipt frame per punctuation batch, so this is how many
// batches the executor may run ahead of a slow reader before its fan-out
// blocks on that session (and the write timeout starts to bite); bounded so
// a stalled client costs at most this many frames of memory.
const sessionOutbound = 64

// Server is the framed-RPC front door: it owns an engine, accepts TCP
// connections, maps each onto an ingest session multiplexed over the
// engine's bounded ingest queue, and fans BatchResults out as per-connection
// receipt frames. Construct with New, register operators with Register,
// then Serve a listener; Shutdown drains gracefully.
type Server struct {
	cfg    Config
	eng    *engine.Engine
	ops    map[string]engine.Operator
	codecs map[string]Codec

	mu       sync.Mutex
	sessions map[*session]struct{}
	lis      net.Listener
	serving  bool

	draining atomic.Bool
	// wg tracks session goroutines (reader + writer per connection).
	wg sync.WaitGroup

	// pending accumulates the current batch's post-processed envelopes
	// between PostProcess and the result sink, and touched the sessions the
	// sink found among them. Both run on the engine's executor goroutine,
	// so no lock guards them.
	pending []*envelope
	touched []*session

	inst serverInstruments
}

// serverInstruments are the front door's registry series, wired from
// Config.Engine.Telemetry; all nil (no-op) without a registry. Frame
// counters are indexed by FrameType so the per-frame path is one array load
// and one stripe add.
type serverInstruments struct {
	connections *telemetry.Counter
	disconnects *telemetry.Counter
	sendStalls  *telemetry.Counter
	framesIn    [FrameError + 1]*telemetry.Counter
	framesOut   [FrameError + 1]*telemetry.Counter
}

// setupTelemetry registers the server's series. Called once from New.
func (s *Server) setupTelemetry() {
	reg := s.cfg.Engine.Telemetry
	if reg == nil {
		return
	}
	s.inst.connections = reg.Counter("morph_rpc_connections_total", "Connections accepted.")
	s.inst.disconnects = reg.Counter("morph_rpc_disconnects_total", "Sessions torn down.")
	s.inst.sendStalls = reg.Counter("morph_rpc_send_stalls_total", "Outbound enqueues that found the receipt queue full (writer backpressure).")
	for t := FrameType(1); t <= FrameError; t++ {
		s.inst.framesIn[t] = reg.CounterL("morph_rpc_frames_in_total", "Frames read from clients, by type.", "type", t.String())
		s.inst.framesOut[t] = reg.CounterL("morph_rpc_frames_out_total", "Frames written to clients, by type.", "type", t.String())
	}
	reg.GaugeFunc("morph_rpc_sessions", "Live sessions.", func() int64 {
		return int64(s.Sessions())
	})
	reg.GaugeFunc("morph_rpc_receipt_queue_depth", "Queued outbound frames across all sessions.", func() int64 {
		var n int64
		for _, ss := range s.snapshotSessions() {
			n += int64(len(ss.out))
		}
		return n
	})
}

// New builds a server over a fresh engine. Preload state through
// Engine().Table() before calling Serve.
func New(cfg Config) *Server {
	if cfg.MaxPayload == 0 {
		cfg.MaxPayload = DefaultMaxPayload
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	s := &Server{
		cfg:      cfg,
		ops:      make(map[string]engine.Operator),
		codecs:   map[string]Codec{BinaryCodec{}.Name(): BinaryCodec{}, GobCodec{}.Name(): GobCodec{}},
		sessions: make(map[*session]struct{}),
	}
	opts := make([]engine.Option, 0, len(cfg.Options)+1)
	opts = append(opts, cfg.Options...)
	opts = append(opts, engine.WithResultSink(s.onBatch))
	s.eng = engine.New(cfg.Engine, opts...)
	s.setupTelemetry()
	return s
}

// Register hosts op under name; sessions select it in their Hello. Call
// before Serve.
func (s *Server) Register(name string, op engine.Operator) {
	s.ops[name] = op
}

// Engine exposes the embedded engine for preloading state (before Serve)
// and reading stats (PipelineStats, RecoveredSeq).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Sessions reports the number of live sessions.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Serve starts the engine's streaming lifecycle and accepts connections on
// lis until Shutdown closes it (returning nil) or Accept fails (returning
// the error). One Serve per server.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.serving {
		s.mu.Unlock()
		return errors.New("rpcserve: Serve called twice")
	}
	s.serving = true
	s.lis = lis
	s.mu.Unlock()

	if err := s.eng.Start(context.Background()); err != nil {
		return err
	}
	s.logf("rpcserve: serving on %s", lis.Addr())
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil // Shutdown closed the listener
			}
			return err
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.inst.connections.Inc()
		ss := newSession(s, conn)
		s.mu.Lock()
		s.sessions[ss] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(2)
		go ss.readLoop()
		go ss.writeLoop()
	}
}

// Shutdown drains the server: it stops accepting connections and reading
// new submits, flushes the engine (every ingested event executes and its
// receipt is delivered), explicitly fails any event read but not ingested,
// announces the drain to every client with a Goodbye frame, and waits —
// bounded by ctx — for the receipt writers to flush. After Shutdown every
// in-flight submit has either a final receipt or an explicit
// StatusFailed one.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.logf("rpcserve: draining")
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	// Wake readers blocked in Read; they observe the drain flag and stop
	// reading, leaving their writers alive for the final receipts.
	for _, ss := range s.snapshotSessions() {
		ss.beginDrain()
	}
	// Flush + tear the engine down: every ingested event executes, its
	// receipt is queued through the sink, then the pipeline stops.
	err := s.eng.Close()
	// The engine is quiet: anything still outstanding was read off a
	// socket but never ingested — fail it explicitly, in submit order,
	// strictly after every executed event's receipt.
	for _, ss := range s.snapshotSessions() {
		ss.finishDrain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		for _, ss := range s.snapshotSessions() {
			ss.kill()
		}
		<-done
		if err == nil {
			err = ctx.Err()
		}
	}
	s.logf("rpcserve: drained")
	return err
}

func (s *Server) snapshotSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*session, 0, len(s.sessions))
	for ss := range s.sessions {
		out = append(out, ss)
	}
	return out
}

func (s *Server) removeSession(ss *session) {
	s.mu.Lock()
	delete(s.sessions, ss)
	s.mu.Unlock()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// onBatch is the engine's result sink: it runs on the executor goroutine,
// in punctuation order, and fans the batch's envelopes out to their
// sessions — one Receipt frame per session holding all of that session's
// outcomes (split only where it would outgrow MaxPayload). Per-session
// receipt order equals submit order: a session's reader is a single ring
// producer, batches execute in sequence, and PostProcess visits a batch's
// events in plan order.
func (s *Server) onBatch(res *engine.BatchResult) {
	// Count first, so each session's payload buffer is sized to its own
	// share of the batch however many sessions the batch interleaves.
	for _, env := range s.pending {
		if env.sess.acks == 0 {
			s.touched = append(s.touched, env.sess)
		}
		env.sess.acks++
	}
	for i, env := range s.pending {
		ss := env.sess
		if ss.rb.full(s.cfg.MaxPayload) {
			ss.send(ss.rb.frame(res.Seq, res.Durable))
		}
		ss.rb.add(env.txnID, env.status, ss.acks)
		s.pending[i] = nil
	}
	s.pending = s.pending[:0]
	for i, ss := range s.touched {
		ss.ackOutstanding(ss.acks)
		ss.acks = 0
		ss.send(ss.rb.frame(res.Seq, res.Durable))
		s.touched[i] = nil
	}
	s.touched = s.touched[:0]
}

// envelope carries one submitted event through the engine in a single
// allocation: the session and txn ID route the receipt back, outer is the
// event the engine ingests (its Data points back at the envelope), inner is
// the application-facing event the registered operator sees, and status
// accumulates the outcome.
type envelope struct {
	sess  *session
	txnID uint64
	outer engine.Event
	inner engine.Event
	// status is StatusInvalid when the payload failed to decode (preset by
	// the reader), StatusDropped when the inner operator rejected the
	// event (set at plan time), else Committed/Aborted (set at
	// post-process time).
	status Status
}

// envParam is the reserved blotter key threading the envelope from the
// wrapper's PreProcess to its StateAccess.
const envParam = "\x00rpcserve.env"

// serverOp wraps the session's registered operator so that every submitted
// event — including ones the inner operator rejects — flows through the
// batch machinery and yields exactly one receipt, in order. Rejected
// events plan an empty transaction: it commits trivially, touches no
// state, and keeps the receipt stream aligned with batch sequence order.
type serverOp struct{ s *Server }

// PreProcess implements engine.Operator.
func (o serverOp) PreProcess(ev *engine.Event) (*txn.EventBlotter, error) {
	env := ev.Data.(*envelope)
	var eb *txn.EventBlotter
	if env.status == StatusOK {
		ieb, err := env.sess.op.PreProcess(&env.inner)
		if err != nil || ieb == nil {
			env.status = StatusDropped
		} else {
			eb = ieb
		}
	}
	if eb == nil {
		eb = txn.NewEventBlotter()
	}
	eb.Params[envParam] = env
	return eb, nil
}

// StateAccess implements engine.Operator. An inner StateAccess error drops
// the event: the half-issued operations are truncated off the transaction,
// so nothing of it executes.
func (o serverOp) StateAccess(eb *txn.EventBlotter, b *txn.Builder) error {
	env := eb.Params[envParam].(*envelope)
	if env.status != StatusOK {
		return nil
	}
	n := b.Len()
	if err := env.sess.op.StateAccess(eb, b); err != nil {
		b.Truncate(n)
		env.status = StatusDropped
	}
	return nil
}

// PostProcess implements engine.Operator: it resolves the outcome, runs the
// inner post-processing, and stages the envelope for the sink's receipt
// fan-out.
func (o serverOp) PostProcess(ev *engine.Event, eb *txn.EventBlotter, aborted bool) error {
	env := ev.Data.(*envelope)
	if env.status == StatusOK {
		_ = env.sess.op.PostProcess(&env.inner, eb, aborted)
		if aborted {
			env.status = StatusAborted
		} else {
			env.status = StatusCommitted
		}
	}
	o.s.pending = append(o.s.pending, env)
	return nil
}

// outFrame is one queued outbound frame; last marks the session's final
// frame — the writer flushes and closes after it.
type outFrame struct {
	Frame
	last bool
}

// session is one accepted connection: a reader goroutine that decodes
// frames and ingests (blocking on the ring — the socket backpressure), and
// a writer goroutine that streams receipt/control frames back.
type session struct {
	srv  *Server
	conn net.Conn
	fr   *frameReader
	bw   *bufio.Writer

	// op and codec are fixed by the Hello handshake, before any Submit.
	op    engine.Operator
	codec Codec

	out      chan outFrame
	done     chan struct{}
	killOnce sync.Once
	draining atomic.Bool

	// dmu orders the reader's deadline refresh against beginDrain's
	// immediate deadline, so the drain wake-up can never be lost to a
	// racing SetReadDeadline.
	dmu sync.Mutex

	// outstanding is the FIFO of submitted-but-unreceipted txn IDs:
	// pushed by the reader, acked (in order) by the executor's fan-out,
	// failed explicitly by finishDrain.
	omu     sync.Mutex
	outs    []uint64
	outHead int

	// rb is the Receipt frame under construction and acks the session's
	// event count in the batch being fanned out; both belong to whoever
	// runs the fan-out — the executor goroutine, then finishDrain once it
	// stopped.
	rb   receiptBatch
	acks int

	scratch [HeaderSize]byte
}

func newSession(s *Server, conn net.Conn) *session {
	return &session{
		srv:  s,
		conn: conn,
		fr:   newFrameReader(bufio.NewReaderSize(conn, 32<<10), s.cfg.MaxPayload),
		bw:   bufio.NewWriterSize(timedWriter{conn, s.cfg.WriteTimeout}, 32<<10),
		out:  make(chan outFrame, sessionOutbound),
		done: make(chan struct{}),
	}
}

// kill tears the session down immediately: pending outbound frames are
// dropped, the connection closes, the server forgets the session. Safe to
// call from any goroutine, any number of times.
func (ss *session) kill() {
	ss.killOnce.Do(func() {
		close(ss.done)
		ss.conn.Close()
		ss.srv.removeSession(ss)
		ss.srv.inst.disconnects.Inc()
	})
}

// send queues one outbound frame, blocking while the queue is full; it
// returns false — dropping the frame — once the session died. A live but
// stalled session bounds the blockage via the writer's write timeout.
func (ss *session) send(f Frame) bool {
	if len(ss.out) == cap(ss.out) {
		ss.srv.inst.sendStalls.Inc()
	}
	select {
	case ss.out <- outFrame{Frame: f}:
		return true
	case <-ss.done:
		return false
	}
}

// sendLast queues the session's final frame; the writer flushes it and
// closes the connection.
func (ss *session) sendLast(f Frame) {
	select {
	case ss.out <- outFrame{Frame: f, last: true}:
	case <-ss.done:
	}
}

// sendError reports a terminal error to the peer and ends the session.
func (ss *session) sendError(st Status, msg string) {
	ss.sendLast(Frame{Type: FrameError, Status: st, Payload: []byte(msg)})
}

func (ss *session) pushOutstanding(id uint64) {
	ss.omu.Lock()
	ss.outs = append(ss.outs, id)
	ss.omu.Unlock()
}

// ackOutstanding pops the n oldest IDs — receipts leave in submit order.
func (ss *session) ackOutstanding(n int) {
	ss.omu.Lock()
	if ss.outHead+n <= len(ss.outs) {
		ss.outHead += n
		if ss.outHead == len(ss.outs) {
			ss.outs = ss.outs[:0]
			ss.outHead = 0
		} else if ss.outHead >= 256 && ss.outHead*2 >= len(ss.outs) {
			ss.outs = append(ss.outs[:0], ss.outs[ss.outHead:]...)
			ss.outHead = 0
		}
	}
	ss.omu.Unlock()
}

// takeOutstanding drains the FIFO: the IDs read from the socket but never
// executed, in submit order.
func (ss *session) takeOutstanding() []uint64 {
	ss.omu.Lock()
	defer ss.omu.Unlock()
	rest := ss.outs[ss.outHead:]
	out := make([]uint64, len(rest))
	copy(out, rest)
	ss.outs = ss.outs[:0]
	ss.outHead = 0
	return out
}

// beginDrain stops the session's reader: the drain flag plus an immediate
// read deadline wake a blocked Read; the reader observes the flag and
// parks, leaving the writer alive for the final receipts. dmu makes the
// wake-up race-free against the reader's own deadline refresh.
func (ss *session) beginDrain() {
	ss.dmu.Lock()
	ss.draining.Store(true)
	ss.conn.SetReadDeadline(time.Now())
	ss.dmu.Unlock()
}

// armRead refreshes the idle read deadline; it reports false — without
// touching the deadline — once the session is draining, so beginDrain's
// immediate deadline always survives until the reader parks.
func (ss *session) armRead() bool {
	ss.dmu.Lock()
	defer ss.dmu.Unlock()
	if ss.draining.Load() || ss.srv.draining.Load() {
		return false
	}
	if t := ss.srv.cfg.ReadTimeout; t > 0 {
		ss.conn.SetReadDeadline(time.Now().Add(t))
	}
	return true
}

// finishDrain runs after the engine flushed: whatever is still outstanding
// never executed, so it is failed explicitly — batched like any other
// receipts, under seq 0 — then the server says Goodbye and the writer
// flushes and closes.
func (ss *session) finishDrain() {
	failed := ss.takeOutstanding()
	for _, id := range failed {
		if ss.rb.full(ss.srv.cfg.MaxPayload) {
			ss.send(ss.rb.frame(0, false))
		}
		ss.rb.add(id, StatusFailed, len(failed))
	}
	if len(failed) > 0 {
		ss.send(ss.rb.frame(0, false))
	}
	ss.sendLast(Frame{Type: FrameGoodbye, Status: StatusShuttingDown})
}

// writeLoop streams outbound frames, flushing whenever the queue runs dry
// (receipts within a punctuation batch coalesce into one flush). Any write
// error — including the write-timeout of a client that stopped reading —
// kills the session.
func (ss *session) writeLoop() {
	defer ss.srv.wg.Done()
	defer ss.kill()
	for {
		select {
		case of := <-ss.out:
			if err := writeFrame(ss.bw, ss.scratch[:], of.Frame); err != nil {
				return
			}
			ss.srv.inst.framesOut[of.Type].Inc()
			if len(ss.out) == 0 || of.last {
				if err := ss.bw.Flush(); err != nil {
					return
				}
			}
			if of.last {
				return
			}
		case <-ss.done:
			return
		}
	}
}

// readLoop decodes and dispatches inbound frames: the Hello handshake,
// then Submit/Drain/Goodbye until the connection ends or the server
// drains. Ingest blocks while the ingest queue is full, which stops
// this loop from reading — the queue's backpressure propagated to the
// socket, with no drops.
func (ss *session) readLoop() {
	defer ss.srv.wg.Done()
	if !ss.handshake() {
		return
	}
	var lastTxn uint64
	haveTxn := false
	for {
		f, ok := ss.readNext()
		if !ok {
			return
		}
		switch f.Type {
		case FrameSubmit:
			if ss.srv.draining.Load() {
				// The frame raced the drain wake-up: park without
				// ingesting — the event was read but will never execute,
				// so it is recorded for finishDrain's explicit failure.
				ss.pushOutstanding(f.TxnID)
				return
			}
			if haveTxn && f.TxnID <= lastTxn {
				ss.sendError(StatusProtocol, "txn id not increasing")
				return
			}
			lastTxn, haveTxn = f.TxnID, true
			env := &envelope{sess: ss, txnID: f.TxnID}
			env.outer = engine.Event{Data: env, Arrival: time.Now()}
			if v, err := ss.codec.Decode(f.Payload); err != nil {
				env.status = StatusInvalid
			} else {
				env.inner = engine.Event{Data: v, Arrival: env.outer.Arrival}
			}
			ss.pushOutstanding(f.TxnID)
			if err := ss.srv.eng.Ingest(serverOp{ss.srv}, &env.outer); err != nil {
				if ss.srv.draining.Load() {
					// The engine closed under us mid-drain: the event was
					// never ingested; finishDrain fails it explicitly.
					return
				}
				ss.sendError(StatusInternal, "engine: "+err.Error())
				return
			}
		case FrameDrain:
			// An engine-wide flush barrier: every receipt for events this
			// session submitted before the barrier is queued (by the
			// executor's sink) before Drain returns, so the DrainOK the
			// reader queues here sorts after them.
			if err := ss.srv.eng.Drain(); err != nil {
				if ss.srv.draining.Load() {
					// Server drain won the race: the reader parks and
					// finishDrain answers with Goodbye instead.
					return
				}
				ss.sendError(StatusInternal, "drain: "+err.Error())
				return
			}
			ss.send(Frame{Type: FrameDrainOK, TxnID: f.TxnID})
		case FrameGoodbye:
			_ = ss.srv.eng.Drain()
			ss.sendLast(Frame{Type: FrameGoodbyeOK})
			return
		default:
			ss.sendError(StatusProtocol, "unexpected frame "+f.Type.String())
			return
		}
	}
}

// handshake reads and validates the Hello frame, binding the session's
// codec and operator.
func (ss *session) handshake() bool {
	f, ok := ss.readNext()
	if !ok {
		return false
	}
	if f.Type != FrameHello {
		ss.sendError(StatusProtocol, "first frame must be hello")
		return false
	}
	codecName, opName, err := parseHello(f.Payload)
	if err != nil {
		ss.sendError(errStatus(err), err.Error())
		return false
	}
	codec, ok := ss.srv.codecs[codecName]
	if !ok {
		ss.sendError(StatusUnknownCodec, "codec "+codecName)
		return false
	}
	op, ok := ss.srv.ops[opName]
	if !ok {
		ss.sendError(StatusUnknownOperator, "operator "+opName)
		return false
	}
	ss.codec, ss.op = codec, op
	ss.send(Frame{Type: FrameHelloOK})
	return true
}

// readNext reads one frame, handling the three ends of a session: a drain
// wake-up (reader parks, writer survives for the final receipts), a
// protocol violation (error frame, then close), and a transport failure
// (close). Returns ok=false when the reader should stop.
func (ss *session) readNext() (Frame, bool) {
	if !ss.armRead() {
		return Frame{}, false
	}
	f, err := ss.fr.read()
	if err == nil {
		ss.srv.inst.framesIn[f.Type].Inc()
		return f, true
	}
	if ss.draining.Load() || ss.srv.draining.Load() {
		// beginDrain's immediate deadline fired (or the frame raced it):
		// stop reading, keep the writer for the drain's receipts.
		return Frame{}, false
	}
	if we, ok := err.(*wireError); ok {
		ss.sendError(we.status, we.msg)
		return Frame{}, false
	}
	// Transport failure (EOF, reset, idle timeout): tear down silently.
	// In-flight receipts for this session are dropped by send(); other
	// sessions are unaffected.
	ss.kill()
	return Frame{}, false
}
