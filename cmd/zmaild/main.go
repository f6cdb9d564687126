// Command zmaild runs one compliant Zmail ISP: an SMTP server for user
// submissions and peer relay, the per-user e-penny ledger, and a
// persistent link to the bank for pool inventory and credit audits.
//
// Example (ISP 0 of a two-ISP federation):
//
//	zkeygen -out isp0
//	zmaild -index 0 -domains alpha.example,beta.example \
//	       -listen :2525 -bank bankhost:7999 \
//	       -peer 1=betahost:2525 \
//	       -key isp0.key -bankpub bank.pub \
//	       -user alice:1000:50:200 -user bob:1000:50:200
//
// The pool is kept inside the -minavail/-maxavail band by one sealed
// order to the bank per tick, carrying both sides of the band: below
// the band it buys back up to the midpoint, and the bank fills as much
// as the ISP's account covers; above it, it sells the excess down to
// the midpoint.
//
// Users are local:accountPennies:balanceEPennies:dailyLimit. Delivered
// mail is printed to stdout; pass -maildir to store messages as files
// instead.
//
// The daemon is core.StartISPDaemon behind flags. With -wal it replays
// its write-ahead log and registers -user accounts the log does not
// hold before the SMTP listener binds or the bank link dials, so a peer
// never meets a half-recovered ledger; SIGINT/SIGTERM drains accepted
// mail before the final checkpoint closes the log.
//
// Pass -metrics 127.0.0.1:7070 to serve the one admin listener:
// /metrics (Prometheus text), /healthz, /tracez, /debug/pprof, and the
// plain-text ledger pages /users, /statement?user=<name>, /credit and
// /pool:
//
//	curl -s http://127.0.0.1:7070/users
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"zmail/internal/core"
	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/money"
)

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// usagef marks a flag-validation failure: the daemon exits non-zero
// before binding anything, and the error reads as a usage message.
func usagef(format string, a ...any) error {
	return fmt.Errorf("usage: "+format, a...)
}

// checkAddr rejects a listen/dial address that cannot even be split
// into host and port, before any boot work happens. Bindability is
// still the listener's problem — a well-formed but taken or
// unroutable address fails later, at bind time.
func checkAddr(flagName, addr string) error {
	if addr == "" {
		return nil
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return usagef("bad %s address %q: %v", flagName, addr, err)
	}
	return nil
}

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop); err != nil {
		fmt.Fprintln(os.Stderr, "zmaild:", err)
		os.Exit(1)
	}
}

// run boots the daemon the flags describe and serves until stop fires.
func run(args []string, stop <-chan os.Signal) error {
	var delivered atomic.Int64
	d, err := boot(args, &delivered)
	if err != nil {
		return err
	}
	logf := logger(d.Node().Engine().Domain())
	defer func() {
		if err := d.Close(); err != nil {
			logf("shutdown: %v", err)
		}
	}()

	// Daily reset of sent counters at local midnight.
	midnight := time.NewTimer(untilMidnight())
	defer midnight.Stop()
	for {
		select {
		case <-midnight.C:
			d.Node().Engine().EndOfDay()
			logf("daily send counters reset")
			midnight.Reset(untilMidnight())
		case <-stop:
			logf("shutting down (%d messages delivered)", delivered.Load())
			return nil
		}
	}
}

// untilMidnight is the wait until the next local midnight.
func untilMidnight() time.Duration {
	now := time.Now()
	return time.Until(time.Date(now.Year(), now.Month(), now.Day(), 0, 0, 0, 0, now.Location()).AddDate(0, 0, 1))
}

// logger prefixes the daemon's diagnostics with its domain.
func logger(domain string) func(format string, a ...any) {
	return func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "zmaild[%s]: "+format+"\n", append([]any{domain}, a...)...)
	}
}

// boot parses flags and boots the daemon through core.StartISPDaemon,
// counting deliveries in delivered. Every misconfiguration is reported
// as a usage error before anything binds. The caller owns Close.
func boot(args []string, delivered *atomic.Int64) (*core.ISPDaemon, error) {
	fs := flag.NewFlagSet("zmaild", flag.ContinueOnError)
	var userFlags, peers stringList
	var (
		index     = fs.Int("index", -1, "this ISP's federation index (required)")
		domainCSV = fs.String("domains", "", "comma-separated federation domains, in index order (required)")
		compliant = fs.String("compliant", "", "comma-separated 0/1 per ISP (default: all compliant)")
		listen    = fs.String("listen", ":2525", "SMTP listen address")
		bankAddr  = fs.String("bank", "", "bank TCP address")
		keyFile   = fs.String("key", "", "this ISP's private key file")
		bankPub   = fs.String("bankpub", "", "bank public key file")
		insecure  = fs.Bool("insecure", false, "plaintext sealers (local experiments only)")
		minAvail  = fs.Int64("minavail", 1000, "pool low-water mark; below it the ISP buys the pool back up to the band midpoint")
		maxAvail  = fs.Int64("maxavail", 100000, "pool high-water mark; above it the ISP sells the excess down to the band midpoint")
		initAvail = fs.Int64("initavail", 10000, "initial pool")
		limit     = fs.Int64("limit", 500, "default per-user daily send limit")
		freeze    = fs.Duration("freeze", 10*time.Minute, "snapshot quiet period (paper: 10m)")
		policy    = fs.String("policy", "accept", "unpaid-mail policy: accept|tag|reject")
		maildir   = fs.String("maildir", "", "store delivered mail under this directory instead of stdout")
		metricsAd = fs.String("metrics", "", "admin listen address (loopback only!) for telemetry and ledger pages, e.g. 127.0.0.1:7070")
		walDir    = fs.String("wal", "", "write-ahead-log directory; every mutation is logged, boot replays the log, checkpoints every 5m and on shutdown")
		queueDep  = fs.Int("queue-depth", 0, "admission queue depth; >0 decouples SMTP accept latency from ledger commit")
		queueWrk  = fs.Int("queue-workers", 0, "admission queue drain workers (0 = default, with -queue-depth)")
	)
	fs.Var(&userFlags, "user", "local:accountPennies:balanceEPennies:dailyLimit; repeatable")
	fs.Var(&peers, "peer", "index=host:port of a peer ISP; repeatable")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *index < 0 || *domainCSV == "" {
		return nil, usagef("-index and -domains are required")
	}
	domains := strings.Split(*domainCSV, ",")
	if *index >= len(domains) {
		return nil, usagef("index %d outside %d domains", *index, len(domains))
	}
	for _, a := range []struct{ name, addr string }{
		{"-listen", *listen}, {"-bank", *bankAddr}, {"-metrics", *metricsAd},
	} {
		if err := checkAddr(a.name, a.addr); err != nil {
			return nil, err
		}
	}

	var compliantArr []bool
	if *compliant != "" {
		for _, tok := range strings.Split(*compliant, ",") {
			compliantArr = append(compliantArr, strings.TrimSpace(tok) == "1")
		}
		if len(compliantArr) != len(domains) {
			return nil, usagef("-compliant has %d entries for %d domains", len(compliantArr), len(domains))
		}
	}

	var ownSealer, bankSealer crypto.Sealer
	switch {
	case *insecure:
		ownSealer, bankSealer = crypto.Null{}, crypto.Null{}
	case *keyFile != "" && *bankPub != "":
		keyData, err := os.ReadFile(*keyFile)
		if err != nil {
			return nil, err
		}
		box, err := crypto.LoadPrivatePEM(keyData)
		if err != nil {
			return nil, err
		}
		ownSealer = box
		pubData, err := os.ReadFile(*bankPub)
		if err != nil {
			return nil, err
		}
		bankBox, err := crypto.LoadPublicPEM(pubData)
		if err != nil {
			return nil, err
		}
		bankSealer = bankBox
	default:
		return nil, usagef("provide -key and -bankpub, or -insecure")
	}

	var pol isp.NonCompliantPolicy
	switch *policy {
	case "accept":
		pol = isp.AcceptUnpaid
	case "tag":
		pol = isp.TagUnpaid
	case "reject":
		pol = isp.RejectUnpaid
	default:
		return nil, usagef("unknown -policy %q", *policy)
	}

	peerMap := make(map[int]string)
	for _, p := range peers {
		idx, addr, ok := strings.Cut(p, "=")
		if !ok {
			return nil, usagef("bad -peer %q", p)
		}
		i, err := strconv.Atoi(idx)
		if err != nil {
			return nil, usagef("bad -peer index %q", idx)
		}
		peerMap[i] = addr
	}

	var users []core.User
	for _, u := range userFlags {
		parts := strings.Split(u, ":")
		if len(parts) != 4 {
			return nil, usagef("bad -user %q (want local:account:balance:limit)", u)
		}
		account, err1 := strconv.ParseInt(parts[1], 10, 64)
		balance, err2 := strconv.ParseInt(parts[2], 10, 64)
		lim, err3 := strconv.ParseInt(parts[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, usagef("bad -user %q", u)
		}
		users = append(users, core.User{Name: parts[0], Account: money.Penny(account), Balance: money.EPenny(balance), Limit: lim})
	}

	domain := domains[*index]
	logf := logger(domain)
	mailbox := func(user string, msg *mail.Message) {
		n := delivered.Add(1)
		if *maildir == "" {
			fmt.Printf("DELIVER %s@%s  from=%v subject=%q\n", user, domain, msg.From, msg.Subject())
			return
		}
		dir := filepath.Join(*maildir, user)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			logf("maildir: %v", err)
			return
		}
		name := filepath.Join(dir, fmt.Sprintf("%d.eml", n))
		if err := os.WriteFile(name, []byte(msg.Encode()), 0o644); err != nil {
			logf("maildir: %v", err)
		}
	}

	d, err := core.StartISPDaemon(core.ISPDaemonConfig{
		Node: core.NodeConfig{
			Engine: isp.Config{
				Index:          *index,
				Domain:         domain,
				Directory:      isp.NewDirectory(domains, compliantArr),
				MinAvail:       money.EPenny(*minAvail),
				MaxAvail:       money.EPenny(*maxAvail),
				InitialAvail:   money.EPenny(*initAvail),
				DefaultLimit:   *limit,
				FreezeDuration: *freeze,
				Policy:         pol,
				BankSealer:     bankSealer,
				OwnSealer:      ownSealer,
			},
			ListenAddr:   *listen,
			BankAddr:     *bankAddr,
			Peers:        peerMap,
			Mailbox:      mailbox,
			Logf:         logf,
			Queue:        *queueDep > 0,
			QueueDepth:   *queueDep,
			QueueWorkers: *queueWrk,
		},
		WALDir:      *walDir,
		Users:       users,
		MetricsAddr: *metricsAd,
	})
	if err != nil {
		return nil, err
	}
	logf("SMTP on %s; federation %v; bank %s; %d users", d.Node().Addr(), domains, *bankAddr,
		len(d.Node().Engine().Users()))
	if a := d.MetricsAddr(); a != nil {
		logf("metrics and ledger pages on http://%s/", a)
	}
	return d, nil
}
