package rpcserve

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"morphstream/internal/engine"
	"morphstream/internal/txn"
	"morphstream/internal/wal"
)

// newTestServer starts a server with the demo ledger on a loopback
// listener and returns it with its dial address. The server is drained at
// test cleanup.
func newTestServer(t *testing.T, accounts int, balance int64, mut ...func(*Config)) (*Server, string) {
	t.Helper()
	cfg := Config{
		Engine: engine.Config{
			Threads:           2,
			Cleanup:           true,
			PunctuateEvery:    256,
			PunctuateInterval: 2 * time.Millisecond,
		},
		WriteTimeout: 5 * time.Second,
	}
	for _, m := range mut {
		m(&cfg)
	}
	s := New(cfg)
	s.Register(LedgerOperatorName, LedgerOperator())
	PreloadAccounts(s.Engine().Table(), accounts, balance)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s, lis.Addr().String()
}

// genOps builds a deterministic per-client op sequence over the client's
// private account range [base, base+span): transfers sized to abort
// sometimes, with deposits mixed in.
func genOps(seed int64, n, base, span int, balance int64) []any {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]any, n)
	for i := range ops {
		from := base + rng.Intn(span)
		to := base + rng.Intn(span)
		if rng.Intn(8) == 0 {
			ops[i] = Deposit{To: AccountKey(to), Amount: int64(1 + rng.Intn(20))}
			continue
		}
		ops[i] = Transfer{
			From:   AccountKey(from),
			To:     AccountKey(to),
			Amount: int64(1 + rng.Intn(int(balance))),
		}
	}
	return ops
}

// runOracle executes the same per-client op sequences on an in-process
// engine (no network) and returns each event's outcome status plus the
// final balance of every account. Clients use disjoint account ranges, so
// sequential per-client ingest yields the same outcomes as any
// cross-client interleaving.
func runOracle(t *testing.T, ops [][]any, accounts int, balance int64) ([][]Status, []int64) {
	t.Helper()
	eng := engine.New(engine.Config{
		Threads:        2,
		Cleanup:        true,
		PunctuateEvery: 256,
	}, engine.WithResultSink(func(*engine.BatchResult) {}))
	inner := LedgerOperator()
	var statuses []Status
	op := engine.OperatorFuncs{
		Pre:    inner.PreProcess,
		Access: inner.StateAccess,
		Post: func(_ *engine.Event, _ *txn.EventBlotter, aborted bool) error {
			if aborted {
				statuses = append(statuses, StatusAborted)
			} else {
				statuses = append(statuses, StatusCommitted)
			}
			return nil
		},
	}
	PreloadAccounts(eng.Table(), accounts, balance)
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, list := range ops {
		for _, o := range list {
			if err := eng.Ingest(op, &engine.Event{Data: o}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	balances := make([]int64, accounts)
	for i := range balances {
		v, ok := eng.Table().Latest(txn.Key(AccountKey(i)))
		if !ok {
			t.Fatalf("oracle: account %d missing", i)
		}
		balances[i] = v.(int64)
	}
	// Split the flat post-order status stream back per client: sequential
	// ingest means client c's statuses are contiguous.
	out := make([][]Status, len(ops))
	off := 0
	for c, list := range ops {
		out[c] = statuses[off : off+len(list)]
		off += len(list)
	}
	return out, balances
}

// floodClient streams ops through one connection and returns the receipts
// in arrival order.
func floodClient(t *testing.T, addr string, ops []any) []Receipt {
	t.Helper()
	c, err := Dial(addr, ClientConfig{Operator: LedgerOperatorName})
	if err != nil {
		t.Errorf("dial: %v", err)
		return nil
	}
	var got []Receipt
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range c.Receipts() {
			got = append(got, r)
		}
	}()
	for i, o := range ops {
		if _, err := c.Submit(o); err != nil {
			t.Errorf("submit %d: %v", i, err)
			break
		}
	}
	if err := c.Drain(); err != nil {
		t.Errorf("drain: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	<-done
	return got
}

// TestFloodMultiConnection is the acceptance flood: concurrent connections
// stream events and every one gets an exactly-once, in-order receipt whose
// outcome matches the in-process engine run of the same sequences.
func TestFloodMultiConnection(t *testing.T) {
	const (
		conns   = 4
		span    = 16
		balance = int64(40)
	)
	events := 25000
	if testing.Short() {
		events = 2000
	}
	accounts := conns * span
	ops := make([][]any, conns)
	for c := range ops {
		ops[c] = genOps(int64(1000+c), events, c*span, span, balance)
	}
	wantStatuses, wantBalances := runOracle(t, ops, accounts, balance)

	srv, addr := newTestServer(t, accounts, balance)
	got := make([][]Receipt, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = floodClient(t, addr, ops[c])
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for c := 0; c < conns; c++ {
		if len(got[c]) != events {
			t.Fatalf("client %d: %d receipts, want %d", c, len(got[c]), events)
		}
		var lastSeq int64
		for i, r := range got[c] {
			if r.TxnID != uint64(i+1) {
				t.Fatalf("client %d receipt %d: txn %d, want %d (out of order or duplicated)", c, i, r.TxnID, i+1)
			}
			if r.Status != wantStatuses[c][i] {
				t.Fatalf("client %d event %d: status %v, want %v", c, i, r.Status, wantStatuses[c][i])
			}
			if r.Seq < lastSeq {
				t.Fatalf("client %d event %d: batch seq %d < %d (receipts must follow batch order)", c, i, r.Seq, lastSeq)
			}
			lastSeq = r.Seq
		}
	}
	for i, want := range wantBalances {
		v, ok := srv.Engine().Table().Latest(txn.Key(AccountKey(i)))
		if !ok || v.(int64) != want {
			t.Fatalf("account %d: balance %v (ok=%v), want %d", i, v, ok, want)
		}
	}
	waitSessionsGone(t, srv)
}

// TestDurableReceipts serves over a WAL-backed engine and checks receipts
// carry the durability bit.
func TestDurableReceipts(t *testing.T) {
	_, addr := newTestServer(t, 8, 100, func(cfg *Config) {
		cfg.Engine.Durability = &engine.Durability{Sink: wal.NewMemSink()}
	})
	ops := genOps(7, 200, 0, 8, 100)
	for i, r := range floodClient(t, addr, ops) {
		if !r.Durable {
			t.Fatalf("receipt %d: not durable under SyncPunctuation WAL", i)
		}
	}
}

// TestReceiptDoesNotWaitForInterval: on a lightly loaded server the
// punctuation interval is a bound, not a wait. With an interval of one hour
// and an unreachable count, each lone submit must still come back as a
// receipt — sealed by the engine's idle trigger, fanned out as that batch's
// one Receipt frame — without the client asking for a drain.
func TestReceiptDoesNotWaitForInterval(t *testing.T) {
	_, addr := newTestServer(t, 8, 100, func(cfg *Config) {
		cfg.Engine.PunctuateEvery = 1 << 20
		cfg.Engine.PunctuateInterval = time.Hour
	})
	c, err := Dial(addr, ClientConfig{Operator: LedgerOperatorName})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		id, err := c.Submit(Deposit{To: AccountKey(i % 8), Amount: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-c.Receipts():
			if r.TxnID != id || r.Status != StatusCommitted {
				t.Fatalf("submit %d: receipt %+v; want txn %d committed", i, r, id)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("submit %d: no receipt; the batch is waiting for the one-hour interval", i)
		}
	}
}

// TestClientDisconnectMidFlood aborts one connection mid-stream: the
// surviving connections must complete unaffected and the dead session must
// not leak.
func TestClientDisconnectMidFlood(t *testing.T) {
	const (
		conns   = 3
		span    = 8
		balance = int64(40)
	)
	events := 8000
	if testing.Short() {
		events = 1000
	}
	accounts := (conns + 1) * span
	srv, addr := newTestServer(t, accounts, balance)

	// The doomed client: submits on its own account range, then vanishes
	// without Goodbye.
	doomed, err := Dial(addr, ClientConfig{Operator: LedgerOperatorName})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range doomed.Receipts() {
		}
	}()
	for _, o := range genOps(99, 500, conns*span, span, balance) {
		if _, err := doomed.Submit(o); err != nil {
			break
		}
	}
	doomed.Flush()

	ops := make([][]any, conns)
	for c := range ops {
		ops[c] = genOps(int64(2000+c), events, c*span, span, balance)
	}
	wantStatuses, _ := runOracle(t, ops, accounts, balance)

	var wg sync.WaitGroup
	got := make([][]Receipt, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = floodClient(t, addr, ops[c])
		}(c)
	}
	// Kill the doomed connection while the flood is in flight.
	time.Sleep(5 * time.Millisecond)
	doomed.Abort()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for c := 0; c < conns; c++ {
		if len(got[c]) != events {
			t.Fatalf("client %d: %d receipts, want %d", c, len(got[c]), events)
		}
		for i, r := range got[c] {
			if r.TxnID != uint64(i+1) || r.Status != wantStatuses[c][i] {
				t.Fatalf("client %d event %d: got (txn %d, %v), want (txn %d, %v)",
					c, i, r.TxnID, r.Status, i+1, wantStatuses[c][i])
			}
		}
	}
	waitSessionsGone(t, srv)
}

// TestShutdownDrain stops the server mid-flood: every client must observe
// a gapless in-order receipt prefix, any explicit failures strictly after
// all executed receipts, then the server's drain announcement.
func TestShutdownDrain(t *testing.T) {
	const (
		conns   = 3
		span    = 8
		balance = int64(40)
	)
	accounts := conns * span
	srv, addr := newTestServer(t, accounts, balance)

	type result struct {
		receipts  []Receipt
		closeErr  error
		submitted int
		submitErr error
	}
	results := make([]result, conns)
	var wg sync.WaitGroup
	started := make(chan struct{}, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr, ClientConfig{Operator: LedgerOperatorName})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for r := range cl.Receipts() {
					results[c].receipts = append(results[c].receipts, r)
					if len(results[c].receipts) == 1 {
						started <- struct{}{}
					}
				}
			}()
			ops := genOps(int64(3000+c), 1<<20, c*span, span, balance)
			for _, o := range ops {
				if _, err := cl.Submit(o); err != nil {
					results[c].submitErr = err
					break
				}
				if err := cl.Flush(); err != nil {
					results[c].submitErr = err
					break
				}
				results[c].submitted++
			}
			results[c].closeErr = cl.Close()
			<-done
		}(c)
	}
	// Shut down only once every client has seen at least one receipt, so
	// the non-empty-prefix assertion below is deterministic even on a
	// heavily loaded single-core box.
	for c := 0; c < conns; c++ {
		<-started
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for c := 0; c < conns; c++ {
		rs := results[c].receipts
		if len(rs) == 0 {
			t.Fatalf("client %d: no receipts before drain (submitted=%d submitErr=%v closeErr=%v)",
				c, results[c].submitted, results[c].submitErr, results[c].closeErr)
		}
		sawFailed := false
		for i, r := range rs {
			if r.TxnID != uint64(i+1) {
				t.Fatalf("client %d: receipt %d has txn %d — not a gapless in-order prefix", c, i, r.TxnID)
			}
			switch r.Status {
			case StatusCommitted, StatusAborted, StatusDropped, StatusInvalid:
				if sawFailed {
					t.Fatalf("client %d: executed receipt (txn %d, %v) after a Failed receipt", c, r.TxnID, r.Status)
				}
			case StatusFailed:
				sawFailed = true
				if r.Seq != 0 || r.Durable {
					t.Fatalf("client %d: Failed receipt carries seq=%d durable=%v", c, r.Seq, r.Durable)
				}
			default:
				t.Fatalf("client %d: unexpected receipt status %v", c, r.Status)
			}
		}
		if err := results[c].closeErr; !errors.Is(err, ErrServerDraining) {
			t.Fatalf("client %d: close err = %v, want ErrServerDraining", c, err)
		}
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d sessions alive after shutdown", n)
	}
}

// TestProtocolErrors drives raw sockets through malformed exchanges and
// checks the server answers with the specified error frame.
func TestProtocolErrors(t *testing.T) {
	_, addr := newTestServer(t, 4, 100)

	dial := func(t *testing.T) (net.Conn, *frameReader) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn, newFrameReader(conn, 0)
	}
	send := func(t *testing.T, conn net.Conn, f Frame) {
		t.Helper()
		scratch := make([]byte, HeaderSize)
		if err := writeFrame(conn, scratch, f); err != nil {
			t.Fatal(err)
		}
	}
	hello := func(t *testing.T, conn net.Conn, fr *frameReader, codec string) {
		t.Helper()
		send(t, conn, Frame{Type: FrameHello, Payload: encodeHello(codec, LedgerOperatorName)})
		f, err := fr.read()
		if err != nil || f.Type != FrameHelloOK {
			t.Fatalf("hello: frame %v err %v", f.Type, err)
		}
	}
	// encode builds a Submit payload with codec c.
	encode := func(t *testing.T, c Codec, v any) []byte {
		t.Helper()
		p, err := c.Append(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// oneReceipt reads a Receipt frame and expects exactly one entry.
	oneReceipt := func(t *testing.T, fr *frameReader) Receipt {
		t.Helper()
		f, err := fr.read()
		if err != nil || f.Type != FrameReceipt {
			t.Fatalf("want receipt, got (%v, err %v)", f.Type, err)
		}
		rs, err := expand(f)
		if err != nil || len(rs) != 1 {
			t.Fatalf("receipt frame: %d entries, err %v", len(rs), err)
		}
		return rs[0]
	}
	// payloads are the three encodings a v2 server accepts for one event:
	// the binary layout, the binary codec's gob escape hatch, and the gob
	// codec proper.
	type encoding struct {
		name, codec string
		payload     func(t *testing.T, v any) []byte
	}
	encodings := []encoding{
		{"binary", "binary", func(t *testing.T, v any) []byte { return encode(t, BinaryCodec{}, v) }},
		{"binary tag 0", "binary", func(t *testing.T, v any) []byte {
			return append([]byte{gobTag}, encode(t, GobCodec{}, v)...)
		}},
		{"gob", "gob", func(t *testing.T, v any) []byte { return encode(t, GobCodec{}, v) }},
	}
	expectError := func(t *testing.T, fr *frameReader, want Status) {
		t.Helper()
		f, err := fr.read()
		if err != nil {
			t.Fatalf("expected error frame, got read error %v", err)
		}
		if f.Type != FrameError || f.Status != want {
			t.Fatalf("got (%v, %v), want (error, %v)", f.Type, f.Status, want)
		}
	}

	t.Run("bad magic", func(t *testing.T) {
		conn, fr := dial(t)
		raw := header(FrameHello, 0, 0, 0)
		copy(raw, "XXXX")
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		expectError(t, fr, StatusBadMagic)
	})
	t.Run("bad version", func(t *testing.T) {
		// Version 1 is the peer most likely to turn up: its Hello must be
		// refused on the header alone, then the connection closed.
		for _, v := range []byte{1, 42} {
			conn, fr := dial(t)
			raw := append(header(FrameHello, 0, 0, 13), encodeHello("gob", LedgerOperatorName)...)
			raw[4] = v
			if _, err := conn.Write(raw); err != nil {
				t.Fatal(err)
			}
			expectError(t, fr, StatusBadVersion)
			if _, err := fr.read(); err != io.EOF {
				t.Fatalf("version %d: after the error frame: %v, want EOF", v, err)
			}
		}
	})
	t.Run("unknown codec", func(t *testing.T) {
		conn, fr := dial(t)
		send(t, conn, Frame{Type: FrameHello, Payload: encodeHello("cbor", LedgerOperatorName)})
		expectError(t, fr, StatusUnknownCodec)
	})
	t.Run("unknown operator", func(t *testing.T) {
		conn, fr := dial(t)
		send(t, conn, Frame{Type: FrameHello, Payload: encodeHello("binary", "no-such-op")})
		expectError(t, fr, StatusUnknownOperator)
	})
	t.Run("submit before hello", func(t *testing.T) {
		conn, fr := dial(t)
		send(t, conn, Frame{Type: FrameSubmit, TxnID: 1})
		expectError(t, fr, StatusProtocol)
	})
	t.Run("oversized payload", func(t *testing.T) {
		conn, fr := dial(t)
		hello(t, conn, fr, "binary")
		raw := header(FrameSubmit, 0, 1, DefaultMaxPayload+1)
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		expectError(t, fr, StatusTooLarge)
	})
	for _, enc := range encodings {
		t.Run("txn id not increasing/"+enc.name, func(t *testing.T) {
			conn, fr := dial(t)
			hello(t, conn, fr, enc.codec)
			payload := enc.payload(t, Deposit{To: AccountKey(0), Amount: 1})
			send(t, conn, Frame{Type: FrameSubmit, TxnID: 5, Payload: payload})
			send(t, conn, Frame{Type: FrameSubmit, TxnID: 5, Payload: payload})
			for {
				f, err := fr.read()
				if err != nil {
					t.Fatalf("expected protocol error frame, got read error %v", err)
				}
				if f.Type == FrameReceipt {
					continue // the first submit's receipt may arrive first
				}
				if f.Type != FrameError || f.Status != StatusProtocol {
					t.Fatalf("got (%v, %v), want (error, protocol-violation)", f.Type, f.Status)
				}
				break
			}
		})
		t.Run("goodbye flushes then closes/"+enc.name, func(t *testing.T) {
			conn, fr := dial(t)
			hello(t, conn, fr, enc.codec)
			send(t, conn, Frame{Type: FrameSubmit, TxnID: 1, Payload: enc.payload(t, Deposit{To: AccountKey(1), Amount: 2})})
			send(t, conn, Frame{Type: FrameGoodbye})
			if r := oneReceipt(t, fr); r.TxnID != 1 || r.Status != StatusCommitted {
				t.Fatalf("want committed receipt for txn 1 before goodbye-ok, got %+v", r)
			}
			f, err := fr.read()
			if err != nil || f.Type != FrameGoodbyeOK {
				t.Fatalf("want goodbye-ok, got (%v, err %v)", f.Type, err)
			}
		})
	}
	t.Run("undecodable payload gets invalid receipt", func(t *testing.T) {
		bad := map[string][]byte{
			"empty":             nil,
			"unregistered tag":  {200, 1, 2, 3},
			"truncated layout":  encode(t, BinaryCodec{}, Deposit{To: AccountKey(0), Amount: 1})[:4],
			"trailing bytes":    append(encode(t, BinaryCodec{}, Deposit{To: AccountKey(0), Amount: 1}), 0),
			"tag 0, not gob":    append([]byte{gobTag}, "not gob at all"...),
			"string over frame": {tagDeposit, 0xff, 0xff, 0x03, 'x'},
		}
		for name, payload := range bad {
			conn, fr := dial(t)
			hello(t, conn, fr, "binary")
			send(t, conn, Frame{Type: FrameSubmit, TxnID: 1, Payload: payload})
			if r := oneReceipt(t, fr); r.TxnID != 1 || r.Status != StatusInvalid {
				t.Fatalf("%s: got %+v, want (txn 1, invalid)", name, r)
			}
		}
	})
}

// TestVersionSkewClient points the v2 client at a peer that answers like a
// v1 server: the Dial must fail on the version byte, never parse the frame.
func TestVersionSkewClient(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.ReadFull(conn, make([]byte, HeaderSize)) // the v2 Hello's header
		// What a v1 server says to a version it does not speak.
		raw := append(header(FrameError, StatusBadVersion, 0, 9), "version 2"...)
		raw[4] = 1
		conn.Write(raw)
	}()
	_, err = Dial(lis.Addr().String(), ClientConfig{Operator: LedgerOperatorName, DialTimeout: 5 * time.Second})
	if err == nil || !strings.Contains(err.Error(), StatusBadVersion.String()) {
		t.Fatalf("Dial against a v1 peer: err = %v, want %s", err, StatusBadVersion)
	}
}

// TestReceiptFramesSplitAtMaxPayload shrinks the payload bound until one
// batch's receipts cannot share a frame: the client must still see every
// receipt once, in order, and no frame may exceed the bound.
func TestReceiptFramesSplitAtMaxPayload(t *testing.T) {
	const maxPayload = 64
	_, addr := newTestServer(t, 8, 100, func(cfg *Config) {
		cfg.MaxPayload = maxPayload
		cfg.Engine.PunctuateEvery = 1 << 20 // one batch: everything until the drain
		cfg.Engine.PunctuateInterval = 0
	})
	ops := genOps(11, 500, 0, 8, 100)
	c, err := Dial(addr, ClientConfig{Operator: LedgerOperatorName, MaxPayload: maxPayload})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []Receipt)
	go func() {
		var rs []Receipt
		for r := range c.Receipts() {
			rs = append(rs, r)
		}
		got <- rs
	}()
	for _, o := range ops {
		if _, err := c.Submit(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v (an oversized receipt frame would surface here as too-large)", err)
	}
	rs := <-got
	if len(rs) != len(ops) {
		t.Fatalf("%d receipts, want %d", len(rs), len(ops))
	}
	for i, r := range rs {
		if r.TxnID != uint64(i+1) || r.Seq != rs[0].Seq {
			t.Fatalf("receipt %d: txn %d seq %d, want txn %d in batch %d", i, r.TxnID, r.Seq, i+1, rs[0].Seq)
		}
	}
}

// TestOnBatchGroupsReceiptsBySession feeds the result sink one batch whose
// events interleave two sessions: each session must get exactly one Receipt
// frame, holding its own outcomes in plan order, and its outstanding FIFO
// must shrink by as many.
func TestOnBatchGroupsReceiptsBySession(t *testing.T) {
	s := New(Config{})
	var sessions [2]*session
	for i := range sessions {
		server, client := net.Pipe()
		defer server.Close()
		defer client.Close()
		sessions[i] = newSession(s, server)
	}
	statuses := []Status{StatusCommitted, StatusAborted, StatusDropped, StatusInvalid}
	var want [2][]Receipt
	for i := 0; i < 40; i++ {
		k := i % 3 % 2 // A B A A B A ...: uneven interleaving
		ss := sessions[k]
		id := uint64(10*len(want[k]) + 1) // sparse IDs: multi-valued deltas
		ss.pushOutstanding(id)
		s.pending = append(s.pending, &envelope{sess: ss, txnID: id, status: statuses[i%len(statuses)]})
		want[k] = append(want[k], Receipt{TxnID: id, Status: statuses[i%len(statuses)], Seq: 3, Durable: true})
	}
	sessions[0].pushOutstanding(999) // read, not in this batch: stays outstanding
	s.onBatch(&engine.BatchResult{Seq: 3, Durable: true})

	if len(s.pending) != 0 || len(s.touched) != 0 {
		t.Fatalf("sink left %d pending, %d touched", len(s.pending), len(s.touched))
	}
	for k, ss := range sessions {
		if len(ss.out) != 1 {
			t.Fatalf("session %d: %d frames queued, want 1", k, len(ss.out))
		}
		got, err := expand((<-ss.out).Frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[k]) {
			t.Fatalf("session %d: receipts %+v, want %+v", k, got, want[k])
		}
	}
	if rest := sessions[0].takeOutstanding(); len(rest) != 1 || rest[0] != 999 {
		t.Fatalf("session 0 outstanding after the batch: %v, want [999]", rest)
	}
	if rest := sessions[1].takeOutstanding(); len(rest) != 0 {
		t.Fatalf("session 1 outstanding after the batch: %v, want none", rest)
	}
}

// TestGobCodecClient keeps the non-default codec working end to end.
func TestGobCodecClient(t *testing.T) {
	_, addr := newTestServer(t, 8, 100)
	c, err := Dial(addr, ClientConfig{Operator: LedgerOperatorName, Codec: GobCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(Deposit{To: AccountKey(3), Amount: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if r := <-c.Receipts(); r.TxnID != 1 || r.Status != StatusCommitted {
		t.Fatalf("got %+v, want txn 1 committed", r)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDialRejections covers the client-side surface of handshake failures.
func TestDialRejections(t *testing.T) {
	_, addr := newTestServer(t, 4, 100)
	if _, err := Dial(addr, ClientConfig{}); err == nil {
		t.Fatal("Dial without operator: expected error")
	}
	if _, err := Dial(addr, ClientConfig{Operator: "no-such-op"}); err == nil {
		t.Fatal("Dial with unknown operator: expected error")
	} else if want := StatusUnknownOperator.String(); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}

func waitSessionsGone(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Sessions() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("sessions leaked: %d still live", srv.Sessions())
}

// mallocsDuring counts the heap allocations of the whole process while fn
// runs — every goroutine's, which is the point: the wire's cost is spread
// over client, session reader, executor fan-out and session writer.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestWireAllocsPerEvent is the allocation budget of the front door: the
// same events cost fewer than ten allocations each more over a loopback
// connection than ingested in-process (ROADMAP item 3's target; gob alone
// spent ~200). One connection and count-only punctuation make both runs
// plan the identical sequence of batches, so the difference is the wire's:
// payload decode, envelope, session queues, receipt fan-out, client.
func TestWireAllocsPerEvent(t *testing.T) {
	const (
		events   = 8192
		accounts = 64
		balance  = int64(1000)
	)
	ops := [][]any{genOps(31, events, 0, accounts, balance)}
	var inProcess, wire uint64
	inProcess = mallocsDuring(func() { runOracle(t, ops, accounts, balance) })

	_, addr := newTestServer(t, accounts, balance, func(cfg *Config) {
		cfg.Engine.PunctuateInterval = 0 // the oracle's batches: every 256 events
	})
	var got []Receipt
	wire = mallocsDuring(func() { got = floodClient(t, addr, ops[0]) })
	if len(got) != events {
		t.Fatalf("%d receipts, want %d", len(got), events)
	}
	perEvent := (float64(wire) - float64(inProcess)) / events
	t.Logf("allocs/event: %.1f over the wire, %.1f in-process, wire adds %.1f",
		float64(wire)/events, float64(inProcess)/events, perEvent)
	if perEvent >= 10 {
		t.Errorf("the wire adds %.1f allocs/event, want < 10", perEvent)
	}
}
