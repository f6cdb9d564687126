// Package zmail is a complete implementation of the Zmail protocol
// from "Zmail: Zero-Sum Free Market Control of Spam" (Kuipers, Liu,
// Gautam, Gouda — ICDCS 2005): a sender-pays, receiver-earns email
// economy layered on unmodified SMTP, in which compliant ISPs keep
// per-user e-penny ledgers and per-peer credit arrays, and a central
// bank mints pool inventory and audits the federation for misbehavior.
//
// The package re-exports the library's public surface:
//
//   - mail model: Address, Message, classes and headers;
//   - protocol engines: ISP (Engine), Bank, and their configs;
//   - deployable daemons: Node (SMTP + bank link) and BankServer;
//   - SMTP substrate: SMTPServer, SMTPClient, SendMail;
//   - deterministic simulation: World and WorldConfig;
//   - economics: Campaign, MarketModel, AdoptionModel, ZombieModel,
//     TrafficModel;
//   - anti-spam baselines: Bayes, Blacklist, Whitelist, Hashcash,
//     ChallengeResponse, Shred;
//   - mailing lists: Distributor;
//   - observability: Tracer/TraceRing/TraceRecorder (per-message span
//     chains), MetricsRegistry with pull-based Collectors and
//     Prometheus text exposition, ObsvServer (the daemons' admin
//     listener), and the periodic WAL checkpoint timer;
//   - the paper's formal AP specification and runtime (SpecNew);
//   - the experiment suite: RunExperiment / RunAllExperiments.
//
// Quick start (in-process federation):
//
//	w, _ := zmail.NewWorld(zmail.WorldConfig{NumISPs: 2, UsersPerISP: 2})
//	w.Send("u0@isp0.example", "u1@isp1.example", "hi", "paid mail")
//	w.Run()
//
// See examples/ for runnable programs and EXPERIMENTS.md for the full
// paper-claim reproduction.
package zmail

import (
	"zmail/internal/ap"
	"zmail/internal/ap/zmailspec"
	"zmail/internal/bank"
	"zmail/internal/clock"
	"zmail/internal/core"
	"zmail/internal/corpus"
	"zmail/internal/crypto"
	"zmail/internal/economy"
	"zmail/internal/experiments"
	"zmail/internal/filter"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/maillist"
	"zmail/internal/metrics"
	"zmail/internal/money"
	"zmail/internal/obsv"
	"zmail/internal/persist"
	"zmail/internal/sim"
	"zmail/internal/simnet"
	"zmail/internal/smtp"
	"zmail/internal/trace"
	"zmail/internal/wire"
)

// Money.
type (
	// Penny is real money in US cents.
	Penny = money.Penny
	// EPenny is Zmail scrip; one EPenny sends one message.
	EPenny = money.EPenny
)

// Mail model.
type (
	// Address is a parsed email address.
	Address = mail.Address
	// Message is an email message with headers and body.
	Message = mail.Message
	// MessageClass distinguishes normal, list, and acknowledgment mail.
	MessageClass = mail.Class
)

// Message classes.
const (
	ClassNormal = mail.ClassNormal
	ClassList   = mail.ClassList
	ClassAck    = mail.ClassAck
)

// Mail helpers.
var (
	// ParseAddress parses "local@domain".
	ParseAddress = mail.ParseAddress
	// MustParseAddress panics on malformed input.
	MustParseAddress = mail.MustParseAddress
	// NewMessage builds a message with standard headers.
	NewMessage = mail.NewMessage
	// DecodeMessage parses RFC 822 wire form.
	DecodeMessage = mail.Decode
)

// Protocol engines.
type (
	// ISP is one compliant ISP's protocol engine.
	ISP = isp.Engine
	// ISPConfig configures an ISP engine.
	ISPConfig = isp.Config
	// ISPTransport carries an engine's outbound traffic.
	ISPTransport = isp.Transport
	// Directory maps domains to federation indexes.
	Directory = isp.Directory
	// UserInfo is a read-only user snapshot.
	UserInfo = isp.UserInfo
	// StatementEntry is one journaled ledger event on a user account.
	StatementEntry = isp.Entry
	// StatementEntryKind labels a StatementEntry.
	StatementEntryKind = isp.EntryKind
	// SendOutcome reports what SubmitSync did with a message.
	SendOutcome = isp.SendOutcome
	// QueueConfig sizes an engine's admission queue (StartQueue).
	QueueConfig = isp.QueueConfig
	// Admission reports what the async Submit did with a message.
	Admission = isp.Admission
	// Bank is the central e-penny authority.
	Bank = bank.Bank
	// BankConfig configures the bank.
	BankConfig = bank.Config
	// Violation is one flagged ISP pair from an audit.
	Violation = bank.Violation
	// SettlementTransfer is one inter-ISP settlement payment.
	SettlementTransfer = bank.Transfer
)

// Engine constructors and outcomes.
var (
	// NewISP validates a config and builds an engine.
	NewISP = isp.New
	// NewDirectory builds a federation directory.
	NewDirectory = isp.NewDirectory
	// NewBank validates a config and builds a bank.
	NewBank = bank.New
)

// Sentinel errors re-exported for errors.Is matching.
var (
	// ErrInsufficientBalance: the sender cannot fund one e-penny.
	ErrInsufficientBalance = isp.ErrInsufficientBalance
	// ErrLimitExceeded: the sender hit the daily cap (§5 zombie guard).
	ErrLimitExceeded = isp.ErrLimitExceeded
	// ErrUnknownUser: no such mailbox on this ISP.
	ErrUnknownUser = isp.ErrUnknownUser
	// ErrPoolExhausted: the ISP's e-penny pool cannot cover the trade.
	ErrPoolExhausted = isp.ErrPoolExhausted
	// ErrQueueFull: admission backpressure from the bounded queue.
	ErrQueueFull = isp.ErrQueueFull
	// ErrBankReplay: the bank saw a replayed nonce.
	ErrBankReplay = bank.ErrReplay
)

// Submit outcomes.
const (
	SentLocal    = isp.SentLocal
	SentPaid     = isp.SentPaid
	SentUnpaid   = isp.SentUnpaid
	SentBuffered = isp.SentBuffered
)

// Admission outcomes (the async Submit path).
const (
	AdmitQueued    = isp.AdmitQueued
	AdmitCommitted = isp.AdmitCommitted
)

// Statement entry kinds.
const (
	EntrySent     = isp.EntrySent
	EntryReceived = isp.EntryReceived
	EntryAckSent  = isp.EntryAckSent
	EntryBuy      = isp.EntryBuy
	EntrySell     = isp.EntrySell
	EntryDeposit  = isp.EntryDeposit
	EntryWithdraw = isp.EntryWithdraw
)

// Unpaid-mail policies (§4.1/§5 of the paper).
const (
	AcceptUnpaid = isp.AcceptUnpaid
	TagUnpaid    = isp.TagUnpaid
	FilterUnpaid = isp.FilterUnpaid
	RejectUnpaid = isp.RejectUnpaid
)

// Daemons.
type (
	// Node is a deployable compliant-ISP daemon (SMTP + bank link).
	Node = core.Node
	// NodeConfig configures a Node.
	NodeConfig = core.NodeConfig
	// BankServer exposes a Bank over TCP.
	BankServer = core.BankServer
)

// Daemon constructors.
var (
	// NewNode builds and starts a node.
	NewNode = core.NewNode
	// StartBank builds a bank behind a new TCP server.
	StartBank = core.StartBank
)

// SMTP substrate.
type (
	// SMTPServer is the RFC 821-subset listener.
	SMTPServer = smtp.Server
	// SMTPClient submits messages over TCP.
	SMTPClient = smtp.Client
	// SMTPSession handles one inbound transaction.
	SMTPSession = smtp.Session
	// SMTPBackend creates sessions for inbound connections.
	SMTPBackend = smtp.Backend
)

// SMTP helpers.
var (
	// DialSMTP opens a client connection.
	DialSMTP = smtp.Dial
	// SendMail is a one-shot dial/HELO/send/QUIT.
	SendMail = smtp.SendMail
)

// Simulation.
type (
	// World is a deterministic in-process federation.
	World = sim.World
	// WorldConfig sizes a World.
	WorldConfig = sim.Config
	// SendSpec describes one submission for World.SendAll batches.
	SendSpec = sim.SendSpec
	// SendResult is one positional outcome of a SendAll batch.
	SendResult = sim.SendResult
	// ContentionStats reports stripe-lock contention for an Engine.
	ContentionStats = isp.ContentionStats
	// SimNetwork is the deterministic message network.
	SimNetwork = simnet.Network
	// VirtualClock drives deterministic time.
	VirtualClock = clock.Virtual
)

// Simulation constructors.
var (
	// NewWorld wires up a federation.
	NewWorld = sim.NewWorld
	// NewVirtualClock creates a virtual clock.
	NewVirtualClock = clock.NewVirtual
	// SystemClock returns the wall clock.
	SystemClock = clock.System
)

// Economics.
type (
	// Campaign models one bulk-mail campaign's economics.
	Campaign = economy.Campaign
	// MarketModel aggregates spammers into a supply curve.
	MarketModel = economy.MarketModel
	// AdoptionModel simulates incremental deployment.
	AdoptionModel = economy.AdoptionModel
	// ZombieModel simulates an email-virus outbreak.
	ZombieModel = economy.ZombieModel
	// TrafficModel generates organic user traffic.
	TrafficModel = economy.TrafficModel
	// AdoptionPoint is one round of an adoption trajectory.
	AdoptionPoint = economy.AdoptionPoint
	// SupplyPoint is one row of the spam-supply curve.
	SupplyPoint = economy.SupplyPoint
	// ZombieOutcome summarizes one simulated outbreak day.
	ZombieOutcome = economy.ZombieOutcome
)

// Economics helpers.
var (
	// ReferenceCampaign2004 is the calibrated reference spam campaign.
	ReferenceCampaign2004 = economy.ReferenceCampaign2004
	// TippingRound finds when an adoption trajectory crosses a share.
	TippingRound = economy.TippingRound
	// MaxProfitableVolume is the per-spammer supply curve.
	MaxProfitableVolume = economy.MaxProfitableVolume
)

// Anti-spam baselines (§2 of the paper).
type (
	// Filter classifies inbound mail.
	Filter = filter.Filter
	// FilterVerdict is a filter decision.
	FilterVerdict = filter.Verdict
	// Bayes is a naive-Bayes content filter.
	Bayes = filter.Bayes
	// Blacklist discards mail from listed domains.
	Blacklist = filter.Blacklist
	// Whitelist passes mail from listed addresses.
	Whitelist = filter.Whitelist
	// Hashcash is a proof-of-work postage baseline.
	Hashcash = filter.Hashcash
	// ChallengeResponse is a human-effort baseline.
	ChallengeResponse = filter.ChallengeResponse
	// Shred models SHRED/Vanquish per-message payments.
	Shred = filter.Shred
)

// Baseline constructors.
var (
	// NewBayes creates an untrained classifier.
	NewBayes = filter.NewBayes
	// NewBlacklist seeds a blacklist.
	NewBlacklist = filter.NewBlacklist
	// NewWhitelist seeds a whitelist.
	NewWhitelist = filter.NewWhitelist
	// NewChallengeResponse seeds a challenge/response filter.
	NewChallengeResponse = filter.NewChallengeResponse
	// NewShred creates the SHRED/Vanquish model.
	NewShred = filter.NewShred
)

// Filter verdicts.
const (
	VerdictDeliver   = filter.Deliver
	VerdictDiscard   = filter.Discard
	VerdictChallenge = filter.Challenge
)

// Mailing lists (§5 of the paper).
type (
	// Distributor is a mailing-list server with ack refunds.
	Distributor = maillist.Distributor
	// DistributorConfig configures a Distributor.
	DistributorConfig = maillist.Config
)

// NewDistributor creates a mailing-list distributor.
var NewDistributor = maillist.New

// Synthetic corpus for filter experiments.
type (
	// CorpusGenerator produces labeled synthetic mail.
	CorpusGenerator = corpus.Generator
	// CorpusClass labels generated messages.
	CorpusClass = corpus.Class
)

// Corpus constructors and classes.
var NewCorpusGenerator = corpus.NewGenerator

// Corpus classes.
const (
	CorpusSpam       = corpus.Spam
	CorpusHam        = corpus.Ham
	CorpusNewsletter = corpus.Newsletter
)

// Formal specification (§3–§4 of the paper).
type (
	// APSystem is the Abstract Protocol runtime.
	APSystem = ap.System
	// Spec is the paper's Zmail specification on that runtime.
	Spec = zmailspec.Spec
	// SpecConfig sizes a Spec instance.
	SpecConfig = zmailspec.Config
)

// Spec constructors.
var (
	// NewAPSystem creates an empty AP system.
	NewAPSystem = ap.NewSystem
	// NewSpec builds the paper's processes, actions and invariants.
	NewSpec = zmailspec.New
)

// Crypto substrate (the paper's NNC/NCR/DCR).
type (
	// Sealer seals payloads to a public key.
	Sealer = crypto.Sealer
	// SealedBox is the RSA-OAEP + AES-GCM hybrid Sealer.
	SealedBox = crypto.Box
	// NonceSource generates unpredictable, non-repeating nonces.
	NonceSource = crypto.Source
	// NullSealer is the no-op Sealer for simulations and benchmarks.
	NullSealer = crypto.Null
)

// Crypto constructors.
var (
	// GenerateSealedBox creates a fresh keypair.
	GenerateSealedBox = crypto.GenerateBox
	// NewNonceSource creates a nonce source.
	NewNonceSource = crypto.NewSource
	// LoadPrivateKeyPEM restores a SealedBox from a key file.
	LoadPrivateKeyPEM = crypto.LoadPrivatePEM
	// LoadPublicKeyPEM restores a public-only SealedBox.
	LoadPublicKeyPEM = crypto.LoadPublicPEM
)

// Wire protocol (bank↔ISP control plane).
type (
	// WireEnvelope frames one sealed control message.
	WireEnvelope = wire.Envelope
	// WireKind discriminates control messages.
	WireKind = wire.Kind
)

// Observability: message tracing, pull-based metrics, and the admin
// telemetry listener.
//
// A Tracer follows e-penny movements across the federation. Mint one
// per party, hand it to the engine or bank config, and every charge,
// transfer, credit, mint, and refund lands in the sink as a Span under
// the flow ID stamped on the message (X-Zmail-Trace) or control
// envelope:
//
//	ring := zmail.NewTraceRing(4096)
//	tracer := zmail.NewTracer("isp0.example", 0, zmail.SystemClock(), ring)
//	eng, _ := zmail.NewISP(zmail.ISPConfig{ /* ... */ Tracer: tracer})
//
// Metrics are pull-based: anything implementing MetricsCollector (an
// ISP engine, a Bank, a sim World) registers with a MetricsRegistry,
// which invokes Collect at scrape time:
//
//	reg := zmail.NewMetricsRegistry()
//	reg.Register(eng)
//	srv, _ := zmail.StartObsvServer("127.0.0.1:7070",
//		zmail.ObsvConfig{Registry: reg, Ring: ring})
//
// and /metrics, /healthz, /tracez, /debug/pprof are live. A sim World
// traces unconditionally: query World.Trace by flow ID after a run to
// audit any message's complete charge→transfer→credit chain.
type (
	// TraceID identifies one traced flow (zero = untraced).
	TraceID = trace.ID
	// TraceSpan is one recorded step of a traced flow.
	TraceSpan = trace.Span
	// TraceSink receives spans (Ring and Recorder implement it).
	TraceSink = trace.Sink
	// TraceRing retains the most recent spans (daemons, /tracez).
	TraceRing = trace.Ring
	// TraceRecorder retains every span (simulation, chaos audits).
	TraceRecorder = trace.Recorder
	// Tracer mints flow IDs and records spans for one party.
	Tracer = trace.Tracer
	// MetricsRegistry stores labeled counters/gauges/histograms and
	// renders Prometheus text exposition.
	MetricsRegistry = metrics.Registry
	// MetricsCollector is the pull-based publication contract.
	MetricsCollector = metrics.Collector
	// MetricsCollectorFunc adapts a function to MetricsCollector.
	MetricsCollectorFunc = metrics.CollectorFunc
	// LatencyHistogram is a fixed-bound histogram for hot-path timings.
	LatencyHistogram = metrics.LatencyHist
	// ObsvServer is the daemons' admin telemetry listener.
	ObsvServer = obsv.Server
	// ObsvConfig wires an ObsvServer to registry, trace ring, health.
	ObsvConfig = obsv.Config
)

// Observability constructors.
var (
	// NewTracer builds a tracer for one party.
	NewTracer = trace.New
	// ParseTraceID inverts TraceID.String (mail-header form).
	ParseTraceID = trace.ParseID
	// NewTraceRing creates a fixed-capacity span ring.
	NewTraceRing = trace.NewRing
	// NewTraceRecorder creates an append-everything span sink.
	NewTraceRecorder = trace.NewRecorder
	// NewMetricsRegistry creates an empty registry.
	NewMetricsRegistry = metrics.NewRegistry
	// NewLatencyHistogram creates a latency histogram.
	NewLatencyHistogram = metrics.NewLatencyHist
	// StartObsvServer binds an address and serves the admin endpoints.
	StartObsvServer = obsv.Start
	// StartCheckpoints runs a checkpoint function (Engine.Checkpoint,
	// say) on a clock's interval.
	StartCheckpoints = persist.StartCheckpoints
)

// Experiments.
type (
	// ExperimentResult is one regenerated experiment.
	ExperimentResult = experiments.Result
	// ReportTable renders aligned text tables.
	ReportTable = metrics.Table
)

// Experiment helpers.
var (
	// RunExperiment regenerates one experiment by ID ("E1".."E14").
	RunExperiment = experiments.Run
	// RunAllExperiments regenerates the full suite.
	RunAllExperiments = experiments.RunAll
	// ExperimentIDs lists the suite in order.
	ExperimentIDs = experiments.IDs
	// NewReportTable creates a report table.
	NewReportTable = metrics.NewTable
)
