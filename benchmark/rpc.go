package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"morphstream/client"
)

// server is a cmd/morphserve child process: the real binary, built from the
// checkout, reached over loopback TCP.
type server struct {
	cmd   *exec.Cmd
	addr  string
	admin string // telemetry endpoint, "" when off
	log   *os.File
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs morphserve and returns once a client.Dial succeeds —
// the moment a user's first connection would.
func startServer(env *environment, w workload, admin bool) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr}
	args := []string{
		"-addr", addr, "-threads", strconv.Itoa(engineThreads),
		"-punctuate", strconv.Itoa(punctuation), "-interval", rpcInterval,
		"-accounts", strconv.Itoa(w.Keys), "-balance", strconv.Itoa(rpcBalance),
		"-quiet",
	}
	if admin {
		if s.admin, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-admin", s.admin)
	}
	s.log, err = os.OpenFile(filepath.Join(env.outDir, w.Name+".server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.cmd = exec.Command(env.morphserve, args...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	if err := s.cmd.Start(); err != nil {
		s.log.Close()
		return nil, fmt.Errorf("start morphserve: %w", err)
	}
	env.wd.adopt(s.cmd)
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		c, err := client.Dial(addr, client.Config{Operator: client.LedgerOperator, DialTimeout: time.Second})
		if err == nil {
			c.Close()
			return s, nil
		}
		if time.Now().After(deadline) {
			s.cmd.Process.Kill()
			s.cmd.Wait()
			s.log.Close()
			return nil, fmt.Errorf("morphserve did not accept a connection: %w", err)
		}
	}
}

// stop asks the server to drain (SIGTERM) and waits for it to exit cleanly.
func (s *server) stop() error {
	defer s.log.Close()
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("morphserve exit: %w", err)
		}
		return nil
	case <-time.After(15 * time.Second):
		s.cmd.Process.Signal(syscall.SIGQUIT)
		<-done
		return errors.New("morphserve did not drain within 15s of SIGTERM; goroutine dump in its log")
	}
}

// rpcProducer is one client connection: a goroutine submitting its own
// stream, and a goroutine consuming its receipts.
type rpcProducer struct {
	c      *client.Client
	stream []event
	names  []string

	sent       atomic.Int64
	submitErrs int64
	// inflight bounds the receipts outstanding in the closed loop: Submit
	// takes a slot, a receipt frees one.
	inflight chan struct{}

	// Receipt side: appended by the consumer goroutine, read after done.
	steps    []step
	statuses []client.Status
	received atomic.Int64
	done     chan struct{}
}

func (p *rpcProducer) consume() {
	defer close(p.done)
	for r := range p.c.Receipts() {
		n := p.received.Load() + 1
		p.steps = append(p.steps, step{nowNS(), n})
		p.statuses = append(p.statuses, r.Status)
		p.received.Store(n)
		select {
		case <-p.inflight:
		default: // open loop: nothing bounds the receipts in flight
		}
	}
}

func (p *rpcProducer) submit() {
	e := &p.stream[p.sent.Load()%int64(len(p.stream))]
	if _, err := p.c.Submit(wirePayload(e, p.names)); err != nil {
		p.submitErrs++
	}
	p.sent.Add(1)
}

// wirePayload is the demo ledger's payload for an RPC-stream event.
func wirePayload(e *event, names []string) any {
	if e.Kind == opDeposit {
		return client.Deposit{To: names[e.Key[0]], Amount: e.Amt[0]}
	}
	return client.Transfer{From: names[e.Key[0]], To: names[e.Key[1]], Amount: e.Amt[0]}
}

// submitBounded is the closed loop's send: it waits for a free receipt slot,
// flushing first so that the receipts it waits for can be produced at all.
func (p *rpcProducer) submitBounded() {
	select {
	case p.inflight <- struct{}{}:
	default:
		p.c.Flush()
		p.inflight <- struct{}{}
	}
	p.submit()
}

// settle flushes, round-trips a drain barrier and waits for the receipt of
// every event sent.
func (p *rpcProducer) settle() error {
	if err := p.c.Drain(); err != nil {
		return err
	}
	for p.received.Load() < p.sent.Load()-p.submitErrs {
		select {
		case <-p.done:
			return fmt.Errorf("session ended with %d of %d receipts: %v", p.received.Load(), p.sent.Load(), p.c.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

// rpcDriver runs the protocol against a morphserve child over rpcClients
// connections.
type rpcDriver struct {
	w         workload
	srv       *server
	producers []*rpcProducer
	closed    bool
}

// openRPC starts a server (with its admin endpoint when admin is set) and
// one connection per stream.
func openRPC(env *environment, w workload, streams [][]event, admin bool) (*rpcDriver, error) {
	srv, err := startServer(env, w, admin)
	if err != nil {
		return nil, err
	}
	d := &rpcDriver{w: w, srv: srv}
	names := keyNames(w)
	for _, s := range streams {
		c, err := client.Dial(srv.addr, client.Config{Operator: client.LedgerOperator})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("dial morphserve: %w", err)
		}
		p := &rpcProducer{
			c: c, stream: s, names: names,
			inflight: make(chan struct{}, rpcInflight),
			// Sized for the longest run, so that no append copies mid-phase.
			steps:    make([]step, 0, 1<<22),
			statuses: make([]client.Status, 0, 1<<22),
			done:     make(chan struct{}),
		}
		go p.consume()
		d.producers = append(d.producers, p)
	}
	return d, nil
}

// each runs fn on every producer concurrently and joins their errors.
func (d *rpcDriver) each(fn func(i int, p *rpcProducer) error) error {
	errs := make([]error, len(d.producers))
	var wg sync.WaitGroup
	for i, p := range d.producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, p)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (d *rpcDriver) closedLoop(n int64, dur time.Duration) error {
	return d.each(func(i int, p *rpcProducer) error {
		if n > 0 {
			// n counts events across all producers; the remainder goes to
			// the first connections.
			share := n / int64(len(d.producers))
			if int64(i) < n%int64(len(d.producers)) {
				share++
			}
			for ; share > 0; share-- {
				p.submitBounded()
			}
		} else {
			for end := time.Now().Add(dur); ; {
				for i := 0; i < 64; i++ {
					p.submitBounded()
				}
				if !time.Now().Before(end) {
					break
				}
			}
		}
		return p.settle()
	})
}

func (d *rpcDriver) paced(rate float64, dur time.Duration) (pacedPhase, error) {
	out := pacedPhase{schedules: make([]schedule, len(d.producers)), lag: &hist{}}
	start := time.Now()
	interval := 1e9 / rate * float64(len(d.producers))
	var mu sync.Mutex
	err := d.each(func(i int, p *rpcProducer) error {
		sc := schedule{First: p.sent.Load(), Start: int64(start.Sub(epoch)), Interval: interval}
		var lag *hist
		sc.Sent, lag = pace(start, interval, dur, p.submit, func() { p.c.Flush() })
		backlog := p.sent.Load() - p.received.Load()
		mu.Lock()
		out.schedules[i] = sc
		out.lag.merge(lag)
		out.backlog += backlog
		mu.Unlock()
		return p.settle()
	})
	return out, err
}

func (d *rpcDriver) timelines() [][]step {
	out := make([][]step, len(d.producers))
	for i, p := range d.producers {
		out[i] = p.steps[:p.received.Load()]
	}
	return out
}

func (d *rpcDriver) progress() (sent, delivered int64) {
	for _, p := range d.producers {
		sent += p.sent.Load()
		delivered += p.received.Load()
	}
	return sent, delivered
}

// verify compares every receipt with the serial oracle. The connections own
// disjoint accounts, so replaying their streams one after the other gives
// the outcomes of any interleaving.
func (d *rpcDriver) verify() (failed int64, err error) {
	o := newOracle(d.w)
	for i, p := range d.producers {
		failed += p.submitErrs
		if got, want := p.received.Load(), p.sent.Load()-p.submitErrs; got != want {
			return failed, fmt.Errorf("connection %d: %d receipts for %d events", i, got, want)
		}
		for j, st := range p.statuses[:p.received.Load()] {
			want := client.StatusCommitted
			if o.apply(&p.stream[j%len(p.stream)]) {
				want = client.StatusAborted
			}
			switch {
			case st != client.StatusCommitted && st != client.StatusAborted:
				failed++
			case st != want:
				return failed, fmt.Errorf("connection %d event %d: receipt %v, oracle %v", i, j, st, want)
			}
		}
	}
	return failed, nil
}

func (d *rpcDriver) close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	var errs []error
	for _, p := range d.producers {
		errs = append(errs, p.c.Close())
		<-p.done
	}
	return errors.Join(append(errs, d.srv.stop())...)
}
