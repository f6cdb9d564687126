// Package zmail is a complete implementation of the Zmail protocol
// from "Zmail: Zero-Sum Free Market Control of Spam" (Kuipers, Liu,
// Gautam, Gouda — ICDCS 2005): a sender-pays, receiver-earns email
// economy layered on unmodified SMTP, in which compliant ISPs keep
// per-user e-penny ledgers and per-peer credit arrays, and a central
// bank mints pool inventory and audits the federation for misbehavior.
//
// The package re-exports the names that its examples, tests and
// benchmarks use:
//
//   - mail model: Address, Message and their constructors;
//   - the ISP engine's config, queue config and directory;
//   - SMTP substrate: SMTPServer, SMTPSession, DialSMTP, SendMail;
//   - deterministic simulation: World, WorldConfig, NewWorld;
//   - economics: the reference campaign, MarketModel, AdoptionModel,
//     ZombieModel;
//   - anti-spam baselines: Bayes, Hashcash, SHRED;
//   - mailing lists: NewDistributor;
//   - the paper's formal specification (NewSpec), sealed boxes, nonces
//     and the bank's wire envelope;
//   - the experiment suite: RunExperiment and ExperimentIDs.
//
// ExampleNewWorld is the quick start, and the package's other Examples
// are the paper's tours (`go test -run '^Example' -v .`). The daemons
// are the commands under cmd/; the live-SMTP tour is
// `go run ./cmd/zsim -experiment E12`, and EXPERIMENTS.md holds the full
// paper-claim reproduction.
package zmail

import (
	"zmail/internal/ap/zmailspec"
	"zmail/internal/corpus"
	"zmail/internal/crypto"
	"zmail/internal/economy"
	"zmail/internal/experiments"
	"zmail/internal/filter"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/maillist"
	"zmail/internal/money"
	"zmail/internal/sim"
	"zmail/internal/smtp"
	"zmail/internal/wire"
)

// Penny is real money in US cents.
type Penny = money.Penny

// Mail model.
type (
	// Address is a parsed email address.
	Address = mail.Address
	// Message is an email message with headers and body.
	Message = mail.Message
)

// Message classes.
const (
	ClassNormal = mail.ClassNormal
	ClassList   = mail.ClassList
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

// ISP engine.
type (
	// ISPConfig configures an ISP engine.
	ISPConfig = isp.Config
	// QueueConfig sizes an engine's admission queue (StartQueue).
	QueueConfig = isp.QueueConfig
)

// NewDirectory builds a federation directory.
var NewDirectory = isp.NewDirectory

// ErrLimitExceeded: the sender hit the daily cap (§5 zombie guard).
var ErrLimitExceeded = isp.ErrLimitExceeded

// EntrySent labels a statement entry for a paid send.
const EntrySent = isp.EntrySent

// SMTP substrate.
type (
	// SMTPServer is the RFC 821-subset listener.
	SMTPServer = smtp.Server
	// SMTPSession handles one inbound transaction.
	SMTPSession = smtp.Session
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
)

// NewWorld wires up a federation.
var NewWorld = sim.NewWorld

// Economics.
type (
	// MarketModel aggregates spammers into a supply curve.
	MarketModel = economy.MarketModel
	// AdoptionModel simulates incremental deployment.
	AdoptionModel = economy.AdoptionModel
	// ZombieModel simulates an email-virus outbreak.
	ZombieModel = economy.ZombieModel
)

// Economics helpers.
var (
	// ReferenceCampaign2004 is the calibrated reference spam campaign.
	ReferenceCampaign2004 = economy.ReferenceCampaign2004
	// TippingRound finds when an adoption trajectory crosses a share.
	TippingRound = economy.TippingRound
)

// Hashcash is the proof-of-work postage baseline (§2 of the paper).
type Hashcash = filter.Hashcash

// Anti-spam baseline constructors (§2 of the paper).
var (
	// NewBayes creates an untrained naive-Bayes content filter.
	NewBayes = filter.NewBayes
	// NewShred creates the SHRED/Vanquish per-message payment model.
	NewShred = filter.NewShred
)

// DistributorConfig configures a mailing-list distributor (§5).
type DistributorConfig = maillist.Config

// NewDistributor creates a mailing-list distributor with ack refunds.
var NewDistributor = maillist.New

// NewCorpusGenerator produces labeled synthetic mail for the filter
// baselines.
var NewCorpusGenerator = corpus.NewGenerator

// Corpus classes.
const (
	CorpusSpam       = corpus.Spam
	CorpusHam        = corpus.Ham
	CorpusNewsletter = corpus.Newsletter
)

// SpecConfig sizes the paper's formal specification (§3–§4).
type SpecConfig = zmailspec.Config

// NewSpec builds the specification's processes, actions and invariants
// on the Abstract Protocol runtime.
var NewSpec = zmailspec.New

// Crypto substrate (the paper's NNC/NCR/DCR).
type (
	// SealedBox is the RSA-OAEP + AES-GCM hybrid sealer.
	SealedBox = crypto.Box
	// NullSealer is the no-op sealer for simulations and benchmarks.
	NullSealer = crypto.Null
)

// Crypto constructors.
var (
	// GenerateSealedBox creates a fresh keypair.
	GenerateSealedBox = crypto.GenerateBox
	// NewNonceSource creates a nonce source.
	NewNonceSource = crypto.NewSource
)

// WireEnvelope frames one sealed bank↔ISP control message.
type WireEnvelope = wire.Envelope

// Experiments.
var (
	// RunExperiment regenerates one experiment by ID ("E1".."E20").
	RunExperiment = experiments.Run
	// ExperimentIDs lists the suite in order.
	ExperimentIDs = experiments.IDs
)
