// Package client is the typed Go client for a MorphStream RPC server
// (cmd/morphserve, or any internal/rpcserve.Server). It speaks the framed
// wire protocol specified in docs/PROTOCOL.md: Dial opens a session bound
// to one server-side operator, Submit streams events, and Receipts delivers
// exactly one outcome per event, in submit order.
//
// Minimal round trip:
//
//	c, err := client.Dial("localhost:7333", client.Config{Operator: "transfer"})
//	if err != nil { ... }
//	go func() {
//		for r := range c.Receipts() {
//			fmt.Println(r.TxnID, r.Status)
//		}
//	}()
//	c.Submit(client.Transfer{From: "acct000000", To: "acct000001", Amount: 5})
//	c.Drain() // flush barrier: the receipt above has been delivered
//	c.Close()
//
// The package is a façade over morphstream/internal/rpcserve so the wire
// types stay private to the module; everything here is an alias of the
// corresponding rpcserve identifier.
package client

import (
	"morphstream/internal/rpcserve"
)

// Client is a live session to a server; see rpcserve.Client for the method
// set (Submit, Flush, Drain, Receipts, Close, Abort, Err).
type Client = rpcserve.Client

// Config parameterises Dial: the target operator, codec, deadlines, and
// buffer sizes.
type Config = rpcserve.ClientConfig

// Receipt is one submitted event's final outcome, correlated by TxnID and
// delivered in submit order.
type Receipt = rpcserve.Receipt

// Codec encodes Submit payloads. Config.Codec == nil selects BinaryCodec;
// implement Codec (and offer it server-side) to speak something else.
type Codec = rpcserve.Codec

// BinaryCodec is the default payload codec: a one-byte type tag followed by
// the type's own fixed layout (see WirePayload), with no reflection on
// either end; types without a layout travel gob-boxed behind tag 0, so
// Submit accepts any registered type (docs/PROTOCOL.md §5.1).
type BinaryCodec = rpcserve.BinaryCodec

// GobCodec carries every payload as a self-contained encoding/gob stream.
// It was the default before protocol version 2 and is still offered by
// every server, but costs two orders of magnitude more CPU per event than
// a BinaryCodec layout; select it only for sessions that want gob on the
// wire for every payload.
type GobCodec = rpcserve.GobCodec

// WirePayload is what a payload type implements to get a fixed binary
// layout under BinaryCodec: a tag unique among the deployment's payload
// types (1–255), an append of its fields, and the matching read. Transfer
// and Deposit implement it (tags 1 and 2).
type WirePayload = rpcserve.WirePayload

// Status is a receipt outcome or session error code.
type Status = rpcserve.Status

// Receipt outcomes: every Submit resolves to exactly one of these.
const (
	// StatusCommitted: the event's state transaction committed.
	StatusCommitted = rpcserve.StatusCommitted
	// StatusAborted: the transaction ran and aborted; writes rolled back.
	StatusAborted = rpcserve.StatusAborted
	// StatusDropped: the operator rejected the event; no transaction ran.
	StatusDropped = rpcserve.StatusDropped
	// StatusInvalid: the payload did not decode; no transaction ran.
	StatusInvalid = rpcserve.StatusInvalid
	// StatusFailed: the server shut down before executing the event.
	StatusFailed = rpcserve.StatusFailed
)

// ErrServerDraining is the terminal session error after the server
// announces its own shutdown drain: all delivered receipts are final.
var ErrServerDraining = rpcserve.ErrServerDraining

// ErrClientClosed is returned by Submit and Drain after Close or Abort.
var ErrClientClosed = rpcserve.ErrClientClosed

// Transfer is the demo ledger's conditional two-account move, servable out
// of the box against cmd/morphserve's "transfer" operator.
type Transfer = rpcserve.Transfer

// Deposit is the demo ledger's unconditional single-account credit.
type Deposit = rpcserve.Deposit

// LedgerOperator is the operator name cmd/morphserve registers the demo
// ledger under.
const LedgerOperator = rpcserve.LedgerOperatorName

// Dial connects to a server at addr, performs the session handshake, and
// starts the receipt reader.
func Dial(addr string, cfg Config) (*Client, error) { return rpcserve.Dial(addr, cfg) }

// RegisterPayload registers a concrete payload type; call it on both client
// and server for every application payload type before the first Submit.
// Every type is registered with gob (GobCodec, and BinaryCodec's tag-0
// fallback); a type implementing WirePayload also claims its tag, and is
// from then on sent and decoded in its binary layout. Two types claiming
// one tag panic. Transfer and Deposit are pre-registered.
func RegisterPayload(v any) { rpcserve.RegisterPayload(v) }

// AccountKey names demo-ledger account i, matching the server's preload.
func AccountKey(i int) string { return rpcserve.AccountKey(i) }
