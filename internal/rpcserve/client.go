package rpcserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Receipt is one submitted event's final outcome, correlated to its Submit
// by TxnID. Receipts arrive on Client.Receipts in submit order, exactly one
// per Submit. Seq is the punctuation-batch sequence number the event
// executed in (0 for StatusFailed — it never executed); Durable reports
// whether that batch's WAL record was synced before the receipt was sent.
type Receipt struct {
	TxnID   uint64
	Status  Status
	Seq     int64
	Durable bool
}

// Final reports whether the receipt carries a terminal event outcome (it
// always does today; the distinction guards against future interim
// statuses).
func (r Receipt) Final() bool { return r.Status >= StatusCommitted && r.Status <= StatusFailed }

// ClientConfig parameterises Dial.
type ClientConfig struct {
	// Operator names the server-side operator this session submits to.
	// Required.
	Operator string
	// Codec encodes Submit payloads; nil means BinaryCodec. The server
	// must offer a codec of the same name (every server offers "binary"
	// and "gob").
	Codec Codec
	// DialTimeout bounds connecting plus the Hello/HelloOK handshake;
	// 0 means 10s.
	DialTimeout time.Duration
	// WriteTimeout bounds each outbound socket write; 0 means 10s.
	WriteTimeout time.Duration
	// ReadTimeout, when > 0, bounds the idle time between inbound frames.
	// The default 0 lets the client wait indefinitely for receipts (an
	// interval-punctuated server may legitimately sit quiet).
	ReadTimeout time.Duration
	// MaxPayload bounds inbound frame payloads; 0 means DefaultMaxPayload.
	MaxPayload uint32
	// ReceiptBuffer is the Receipts channel capacity; 0 means 1024.
	ReceiptBuffer int
}

// ErrServerDraining is the terminal error after the server announces its
// own drain (a Goodbye frame with StatusShuttingDown): every receipt
// delivered before it is final, and nothing more will be accepted.
var ErrServerDraining = errors.New("rpcserve: server draining")

// ErrClientClosed is returned by Submit and Drain after Close or Abort.
var ErrClientClosed = errors.New("rpcserve: client closed")

// Client is the typed Go client for a Server: Dial connects and handshakes,
// Submit streams events, Receipts delivers their outcomes in submit order,
// Drain round-trips a flush barrier, Close performs the Goodbye handshake.
//
// Submit, Flush, Drain and Close must be called from one goroutine;
// Receipts must be consumed concurrently (a full receipt channel stops the
// client reading, which eventually makes the server kill the session as a
// stalled receiver). Err and Abort are safe from any goroutine.
type Client struct {
	conn  net.Conn
	fr    *frameReader
	bw    *bufio.Writer
	codec Codec
	cfg   ClientConfig

	// nextTxn is the last issued connection-scoped transaction ID; Submit
	// pre-increments, so IDs are 1, 2, 3, ... — strictly increasing, as
	// the protocol requires.
	nextTxn uint64

	receipts   chan Receipt
	drained    chan uint64
	readerDone chan struct{}
	closing    atomic.Bool

	mu  sync.Mutex
	err error

	// enc is Submit's frame scratch: header, then the payload the codec
	// appends behind it, written out as one piece and reused.
	enc     []byte
	scratch [HeaderSize]byte
}

// defaultReceiptBuffer is the Receipts channel capacity when ClientConfig
// leaves ReceiptBuffer unset.
const defaultReceiptBuffer = 1024

// Dial connects to a Server at addr, performs the Hello handshake for
// cfg.Operator, and starts the receipt reader. The returned client owns the
// connection; Close it.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.Operator == "" {
		return nil, errors.New("rpcserve: ClientConfig.Operator is required")
	}
	if cfg.Codec == nil {
		cfg.Codec = BinaryCodec{}
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = defaultWriteTimeout
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	if cfg.ReceiptBuffer == 0 {
		cfg.ReceiptBuffer = defaultReceiptBuffer
	}
	deadline := time.Now().Add(cfg.DialTimeout)
	conn, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:       conn,
		fr:         newFrameReader(bufio.NewReaderSize(conn, 32<<10), cfg.MaxPayload),
		bw:         bufio.NewWriterSize(timedWriter{conn, cfg.WriteTimeout}, 32<<10),
		codec:      cfg.Codec,
		enc:        make([]byte, HeaderSize, 256),
		cfg:        cfg,
		receipts:   make(chan Receipt, cfg.ReceiptBuffer),
		drained:    make(chan uint64, 4),
		readerDone: make(chan struct{}),
	}
	// Handshake under the dial deadline, before the reader goroutine owns
	// the inbound stream.
	conn.SetDeadline(deadline)
	hello := Frame{Type: FrameHello, Payload: encodeHello(cfg.Codec.Name(), cfg.Operator)}
	if err := writeFrame(c.bw, c.scratch[:], hello); err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpcserve: hello: %w", err)
	}
	f, err := c.fr.read()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpcserve: hello reply: %w", err)
	}
	switch f.Type {
	case FrameHelloOK:
	case FrameError:
		conn.Close()
		return nil, fmt.Errorf("rpcserve: server rejected hello: %s: %s", f.Status, f.Payload)
	default:
		conn.Close()
		return nil, fmt.Errorf("rpcserve: unexpected hello reply %s", f.Type)
	}
	conn.SetDeadline(time.Time{})
	go c.readLoop()
	return c, nil
}

// Receipts delivers one Receipt per Submit, in submit order. The channel
// closes when the session ends — after a clean Close, a server drain
// (Err() == ErrServerDraining), or a transport/protocol failure (Err()
// reports it).
func (c *Client) Receipts() <-chan Receipt { return c.receipts }

// Submit encodes v and streams it to the server under a fresh transaction
// ID, returned for correlating the receipt. Writes are buffered: they reach
// the server when the buffer fills, or at Flush, Drain, or Close. Submit
// never waits for the outcome — consume Receipts for that.
func (c *Client) Submit(v any) (uint64, error) {
	if err := c.Err(); err != nil {
		return 0, err
	}
	if c.closing.Load() {
		return 0, ErrClientClosed
	}
	buf, err := c.codec.Append(c.enc[:HeaderSize], v)
	if err != nil {
		return 0, err
	}
	c.enc = buf
	c.nextTxn++
	id := c.nextTxn
	putHeader(buf, FrameSubmit, StatusOK, id, uint32(len(buf)-HeaderSize))
	_, err = c.bw.Write(buf)
	return id, err
}

// Flush pushes buffered Submits to the server. Call it before waiting on
// Receipts for events that may still sit in the write buffer.
func (c *Client) Flush() error { return c.bw.Flush() }

// Drain flushes buffered Submits and round-trips a flush barrier: when it
// returns nil, every prior Submit has been executed and its receipt is in
// flight or already delivered (keep consuming Receipts concurrently).
func (c *Client) Drain() error {
	if err := c.Err(); err != nil {
		return err
	}
	if c.closing.Load() {
		return ErrClientClosed
	}
	token := c.nextTxn
	if err := c.write(Frame{Type: FrameDrain, TxnID: token}); err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	select {
	case <-c.drained:
		return nil
	case <-c.readerDone:
		if err := c.Err(); err != nil {
			return err
		}
		return ErrClientClosed
	}
}

// Close performs the Goodbye handshake — the server flushes, every receipt
// is delivered, the connection ends — and returns the session's terminal
// error: nil after a clean close, ErrServerDraining when the server drained
// first. Receipts closes before Close returns; keep consuming it
// concurrently until then.
func (c *Client) Close() error {
	if c.closing.CompareAndSwap(false, true) {
		// Best-effort Goodbye; a dead connection surfaces via the reader.
		if err := c.write(Frame{Type: FrameGoodbye}); err == nil {
			c.bw.Flush()
		}
		// Bound the wait for GoodbyeOK: if the server is gone, the reader
		// wakes on this deadline instead of hanging.
		c.conn.SetReadDeadline(time.Now().Add(c.cfg.WriteTimeout))
	}
	<-c.readerDone
	c.conn.Close()
	return c.Err()
}

// Abort tears the connection down immediately, without the Goodbye
// handshake; in-flight receipts are lost. Safe from any goroutine — it is
// the programmatic equivalent of the process dying.
func (c *Client) Abort() {
	c.closing.Store(true)
	c.conn.Close()
	<-c.readerDone
}

// Err returns the session's terminal error: nil while the session is live
// (or after a clean close), ErrServerDraining after a server drain, the
// transport or protocol error otherwise.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Client) setErr(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// write frames f into the buffered writer. A write error is returned to
// the caller but does not become the session's terminal error: the reader
// owns terminal state (a broken socket surfaces there too, and during a
// server drain the reader's ErrServerDraining is the truthful cause while
// the write-side reset is just its echo).
func (c *Client) write(f Frame) error { return writeFrame(c.bw, c.scratch[:], f) }

// readLoop owns the inbound stream after the handshake: each Receipt frame
// is validated whole, then expanded into one Receipt per event on the
// Receipts channel (in arrival order — which is submit order), DrainOK
// resolves Drain, GoodbyeOK and server Goodbye end the session.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	defer close(c.receipts)
	deliver := func(r Receipt) { c.receipts <- r }
	for {
		if t := c.cfg.ReadTimeout; t > 0 && !c.closing.Load() {
			c.conn.SetReadDeadline(time.Now().Add(t))
		}
		f, err := c.fr.read()
		if err != nil {
			if !c.closing.Load() {
				c.setErr(err)
			}
			return
		}
		switch f.Type {
		case FrameReceipt:
			if err := walkReceipts(f, nil); err != nil {
				c.setErr(err)
				return
			}
			_ = walkReceipts(f, deliver) // validated above
		case FrameDrainOK:
			select {
			case c.drained <- f.TxnID:
			default:
			}
		case FrameGoodbyeOK:
			// Clean end of a client-initiated Goodbye.
			return
		case FrameGoodbye:
			// The server is draining: every receipt already delivered is
			// final; nothing more is coming.
			c.setErr(ErrServerDraining)
			return
		case FrameError:
			c.setErr(fmt.Errorf("rpcserve: server error: %s: %s", f.Status, f.Payload))
			return
		default:
			c.setErr(fmt.Errorf("rpcserve: unexpected frame %s", f.Type))
			return
		}
	}
}
