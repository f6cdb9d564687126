// Command zbank runs one level of the Zmail bank tree: a central bank,
// a leaf of the §5 two-level hierarchy, or the root aggregator above
// the leaves. Every role keeps real-money accounts for the compliant
// ISPs it serves, sells and redeems e-penny pool inventory, and audits
// the federation's credit arrays (§4.3–§4.4 of the paper).
//
// Central bank (two-ISP federation with real keys):
//
//	zkeygen -out bank
//	zbank -listen :7999 -isps 2 -key bank.key \
//	      -enroll 0=isp0.pub -enroll 1=isp1.pub \
//	      -funds 1000000 -audit-every 1h
//
// Two-level hierarchy over TCP: one root plus one leaf per region.
// Each leaf serves its region's ISPs natively (buy/sell, intra-region
// audit) and forwards their credit reports upward; the root joins the
// forwarded reports and verifies the cross-region pairs no leaf can
// see:
//
//	zbank -role root -listen :7900 -isps 4 -assign 0,0,1,1 -insecure
//	zbank -role leaf -listen :7999 -isps 4 -serve 0,1 \
//	      -root roothost:7900 -insecure
//	zbank -role leaf -listen :7998 -isps 4 -serve 2,3 \
//	      -root roothost:7900 -insecure
//
// For local experiments, -insecure replaces all sealed boxes with
// plaintext (the protocol logic, nonces and audits still run).
//
// Pass -metrics 127.0.0.1:7071 to serve the admin telemetry listener:
// /metrics (Prometheus text), /healthz, /tracez, and /debug/pprof.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zmail/internal/bank"
	"zmail/internal/clock"
	"zmail/internal/core"
	"zmail/internal/crypto"
	"zmail/internal/metrics"
	"zmail/internal/money"
	"zmail/internal/obsv"
	"zmail/internal/persist"
	"zmail/internal/trace"
)

// enrollFlag collects repeated -enroll index=pubkeyfile flags.
type enrollFlag map[int]string

func (e enrollFlag) String() string { return fmt.Sprint(map[int]string(e)) }

func (e enrollFlag) Set(v string) error {
	idx, file, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want index=pubkeyfile, got %q", v)
	}
	i, err := strconv.Atoi(idx)
	if err != nil {
		return fmt.Errorf("bad index %q", idx)
	}
	e[i] = file
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "zbank:", err)
		os.Exit(1)
	}
}

// usagef marks a flag-validation failure: the daemon exits non-zero
// before binding anything, and the error reads as a usage message.
func usagef(format string, a ...any) error {
	return fmt.Errorf("usage: "+format, a...)
}

// checkAddr rejects an address that cannot even be split into host and
// port before any boot work happens; bind failures stay bind failures.
func checkAddr(flagName, addr string) error {
	if addr == "" {
		return nil
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return usagef("bad %s address %q: %v", flagName, addr, err)
	}
	return nil
}

// parseIndexCSV parses a comma-separated index list, each in [0, n).
func parseIndexCSV(flagName, csv string, n int) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(csv, ",") {
		i, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || i < 0 || i >= n {
			return nil, usagef("bad %s entry %q (want indexes in [0,%d))", flagName, tok, n)
		}
		out = append(out, i)
	}
	return out, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("zbank", flag.ContinueOnError)
	enrollments := enrollFlag{}
	var (
		listen     = fs.String("listen", ":7999", "TCP listen address")
		isps       = fs.Int("isps", 0, "federation size (required)")
		role       = fs.String("role", "central", "bank role: central|leaf|root")
		serveCSV   = fs.String("serve", "", "leaf: comma-separated ISP indexes this leaf serves")
		rootAddr   = fs.String("root", "", "leaf: root bank address credit reports are forwarded to")
		assignCSV  = fs.String("assign", "", "root: comma-separated region per ISP index, e.g. 0,0,1,1")
		keyFile    = fs.String("key", "", "bank private key file (from zkeygen)")
		funds      = fs.Int64("funds", 1_000_000, "initial real-penny account per compliant ISP")
		auditEvery = fs.Duration("audit-every", 0, "run credit audits on this interval (0 = manual only)")
		insecure   = fs.Bool("insecure", false, "use plaintext sealers (local experiments only)")
		settle     = fs.Bool("settle", false, "move real money between ISP accounts after each verified audit round")
		groupNet   = fs.Bool("group-settle", false, "net each round's settlement multilaterally (implies -settle)")
		stateFile  = fs.String("state", "", "durable ledger file; loaded at start, saved after audits and on shutdown")
		walDir     = fs.String("wal", "", "write-ahead-log directory; every mutation is logged and boot replays the log (excludes -state)")
		metricsAd  = fs.String("metrics", "", "admin telemetry listen address (loopback only!), e.g. 127.0.0.1:7071")
	)
	fs.Var(enrollments, "enroll", "index=pubkeyfile; repeatable, one per compliant ISP")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flag-level rejections happen before any listener binds: a
	// misconfigured daemon dies with a usage message, not a half-boot.
	if *isps <= 0 {
		return usagef("-isps is required")
	}
	if *walDir != "" && *stateFile != "" {
		return usagef("-wal and -state are mutually exclusive")
	}
	for _, a := range []struct{ name, addr string }{
		{"-listen", *listen}, {"-root", *rootAddr}, {"-metrics", *metricsAd},
	} {
		if err := checkAddr(a.name, a.addr); err != nil {
			return err
		}
	}
	var serve []int
	switch *role {
	case "central":
		if *serveCSV != "" || *rootAddr != "" || *assignCSV != "" {
			return usagef("-serve/-root/-assign require -role leaf or root")
		}
	case "leaf":
		if *serveCSV == "" || *rootAddr == "" {
			return usagef("-role leaf requires -serve and -root")
		}
		var err error
		if serve, err = parseIndexCSV("-serve", *serveCSV, *isps); err != nil {
			return err
		}
	case "root":
		if *assignCSV == "" {
			return usagef("-role root requires -assign")
		}
		if *walDir != "" || *stateFile != "" || *auditEvery != 0 {
			return usagef("-wal/-state/-audit-every do not apply to -role root (the root holds no ledger and audits when the leaves report)")
		}
		if *settle || *groupNet {
			return usagef("-settle/-group-settle do not apply to -role root (the root holds no accounts)")
		}
	default:
		return usagef("unknown -role %q (want central, leaf, or root)", *role)
	}

	var ownSealer crypto.Sealer
	switch {
	case *insecure:
		ownSealer = crypto.Null{}
	case *keyFile != "":
		data, err := os.ReadFile(*keyFile)
		if err != nil {
			return err
		}
		box, err := crypto.LoadPrivatePEM(data)
		if err != nil {
			return err
		}
		ownSealer = box
	default:
		return usagef("provide -key or -insecure")
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "zbank[%s]: "+format+"\n", append([]any{*role}, a...)...)
	}
	if *role == "root" {
		return runRoot(*listen, *isps, *assignCSV, *metricsAd, ownSealer, logf)
	}

	// A leaf serves only its region: the other indexes stay
	// non-compliant in its view, so it refuses their buys and audits
	// only the pairs it can see both sides of.
	var compliantMask []bool
	if *role == "leaf" {
		compliantMask = make([]bool, *isps)
		for _, i := range serve {
			compliantMask[i] = true
		}
	}
	ring := trace.NewRing(4096)
	bk, srv, err := core.StartBank(bank.Config{
		NumISPs:        *isps,
		Compliant:      compliantMask,
		InitialAccount: money.Penny(*funds),
		OwnSealer:      ownSealer,
		SettleOnVerify: *settle || *groupNet,
		GroupSettle:    *groupNet,
		Tracer:         trace.New("bank", -1, clock.System(), ring),
	}, *listen, logf)
	if err != nil {
		return err
	}
	defer srv.Close()

	if *role == "leaf" {
		// Forward every verified credit report upward; the root joins
		// reports across leaves and checks the cross-region pairs.
		uplink := core.NewUplink(*rootAddr, serve[0], logf)
		defer uplink.Close()
		srv.SetForward(uplink.Forward)
		logf("forwarding credit reports to root at %s", *rootAddr)
	}

	if *metricsAd != "" {
		reg := metrics.NewRegistry()
		reg.Register(bk)
		admin, err := obsv.Start(*metricsAd, obsv.Config{Registry: reg, Ring: ring})
		if err != nil {
			return err
		}
		defer func() {
			if err := admin.Close(); err != nil {
				logf("metrics server close: %v", err)
			}
		}()
		logf("metrics on http://%s/metrics", admin.Addr())
	}

	for idx, file := range enrollments {
		var sealer crypto.Sealer
		if *insecure {
			sealer = crypto.Null{}
		} else {
			data, err := os.ReadFile(file)
			if err != nil {
				return fmt.Errorf("enroll isp[%d]: %w", idx, err)
			}
			box, err := crypto.LoadPublicPEM(data)
			if err != nil {
				return fmt.Errorf("enroll isp[%d]: %w", idx, err)
			}
			sealer = box
		}
		if err := bk.Enroll(idx, sealer); err != nil {
			return err
		}
		logf("enrolled isp[%d]", idx)
	}
	if *insecure {
		// Without key files, enroll every served ISP with plaintext
		// sealers (all of them for a central bank, the region for a
		// leaf).
		for i := 0; i < *isps; i++ {
			if compliantMask != nil && !compliantMask[i] {
				continue
			}
			if err := bk.Enroll(i, crypto.Null{}); err != nil {
				return err
			}
		}
	}
	if *walDir != "" {
		if persist.HasWAL(*walDir) {
			if err := bk.RecoverWAL(*walDir); err != nil {
				return fmt.Errorf("recover %s: %w", *walDir, err)
			}
			logf("recovered ledger from WAL %s", *walDir)
		} else {
			if err := bk.AttachWAL(*walDir); err != nil {
				return fmt.Errorf("init %s: %w", *walDir, err)
			}
			logf("write-ahead log initialized at %s", *walDir)
		}
		defer func() {
			if err := bk.CloseWAL(); err != nil {
				logf("close wal: %v", err)
			}
		}()
	}
	if *stateFile != "" {
		switch err := bk.LoadState(*stateFile); {
		case err == nil:
			logf("restored ledger from %s", *stateFile)
		case errors.Is(err, persist.ErrNotExist):
			logf("no prior state at %s; starting fresh", *stateFile)
		default:
			return fmt.Errorf("restore %s: %w", *stateFile, err)
		}
	}
	saveState := func() {
		// With a WAL attached SaveState ignores its path and fsyncs the
		// log (compacting past the snapshot threshold).
		if *stateFile == "" && *walDir == "" {
			return
		}
		if err := bk.SaveState(*stateFile); err != nil {
			logf("save state: %v", err)
		}
	}
	defer saveState()

	logf("listening on %s for %d ISPs (funds %v each)", srv.Addr(), *isps, money.Penny(*funds))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *auditEvery > 0 {
		ticker = time.NewTicker(*auditEvery)
		defer ticker.Stop()
		tick = ticker.C
		logf("auditing every %v", *auditEvery)
	}

	known := 0
	for {
		select {
		case <-tick:
			if err := bk.StartSnapshot(); err != nil {
				logf("audit: %v", err)
				continue
			}
			// Poll briefly for completion, then report.
			deadline := time.Now().Add(time.Minute)
			for !bk.RoundComplete() && time.Now().Before(deadline) {
				time.Sleep(100 * time.Millisecond)
			}
			st := bk.Stats()
			logf("audit round %d complete; %d total violations; %d e-pennies outstanding",
				st.Rounds, st.ViolationsAll, bk.Outstanding())
			for _, v := range bk.Violations()[known:] {
				logf("VIOLATION: %v", v)
			}
			known = len(bk.Violations())
			saveState()
		case <-stop:
			logf("shutting down")
			return nil
		}
	}
}

// runRoot serves the top of the two-level hierarchy: a passive
// aggregator that accepts credit reports forwarded by the leaves,
// joins them by round, and verifies the cross-region pairs. It holds
// no accounts and mints nothing, so there is no ledger to persist.
func runRoot(listen string, isps int, assignCSV, metricsAd string, ownSealer crypto.Sealer, logf func(string, ...any)) error {
	assign, err := parseIndexCSV("-assign", assignCSV, isps)
	if err != nil {
		return err
	}
	if len(assign) != isps {
		return usagef("-assign has %d entries for %d ISPs", len(assign), isps)
	}
	root, err := bank.NewRoot(bank.RootConfig{
		NumISPs:   isps,
		Assign:    assign,
		OwnSealer: ownSealer,
	})
	if err != nil {
		return err
	}
	srv, err := core.StartBankHandler(root, listen, logf)
	if err != nil {
		return err
	}
	defer srv.Close()

	if metricsAd != "" {
		reg := metrics.NewRegistry()
		reg.Register(root)
		admin, err := obsv.Start(metricsAd, obsv.Config{Registry: reg})
		if err != nil {
			return err
		}
		defer func() {
			if err := admin.Close(); err != nil {
				logf("metrics server close: %v", err)
			}
		}()
		logf("metrics on http://%s/metrics", admin.Addr())
	}
	logf("root listening on %s for %d ISPs (regions %v)", srv.Addr(), isps, assign)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	report := time.NewTicker(time.Minute)
	defer report.Stop()
	known := 0
	for {
		select {
		case <-report.C:
			st := root.Stats()
			logf("%d reports, %d rounds verified, %d cross pairs, %d violations",
				st.Reports, st.Rounds, st.CrossPairs, st.ViolationsAll)
			for _, v := range root.Violations()[known:] {
				logf("VIOLATION: %v", v)
			}
			known = len(root.Violations())
		case <-stop:
			st := root.Stats()
			logf("shutting down (%d rounds verified, %d violations)", st.Rounds, st.ViolationsAll)
			return nil
		}
	}
}
