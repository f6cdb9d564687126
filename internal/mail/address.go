// Package mail models Internet mail messages for the Zmail system:
// addresses, header blocks, and the RFC 822-style wire form exchanged
// over SMTP. Zmail deliberately requires no change to SMTP (§1.3 of the
// paper); the protocol's small amount of per-message metadata — the
// message class used by the mailing-list acknowledgment mechanism (§5)
// — rides in extension headers (X-Zmail-*).
//
// A body is copied as little as its form allows: Encode writes once into
// a buffer of the final size, Decode takes Body as a substring of its
// input unless there are CRs to strip, and the SMTP client does not call
// Encode at all (EncodeHeader, CutLine). DESIGN.md §7 has the budget.
package mail

import (
	"errors"
	"fmt"
	"strings"
)

// Address is a parsed email address: local part and domain. The domain
// identifies the ISP responsible for the mailbox.
type Address struct {
	Local  string
	Domain string
}

// ErrBadAddress reports an unparseable address.
var ErrBadAddress = errors.New("mail: malformed address")

// ParseAddress parses "local@domain". It trims surrounding whitespace
// and optional angle brackets ("<a@b>").
func ParseAddress(s string) (Address, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "<")
	s = strings.TrimSuffix(s, ">")
	at := strings.LastIndexByte(s, '@')
	if at <= 0 || at == len(s)-1 {
		return Address{}, fmt.Errorf("%w: %q", ErrBadAddress, s)
	}
	local, domain := s[:at], s[at+1:]
	if strings.ContainsAny(local, " \t\r\n") || strings.ContainsAny(domain, " \t\r\n@") {
		return Address{}, fmt.Errorf("%w: %q", ErrBadAddress, s)
	}
	return Address{Local: local, Domain: strings.ToLower(domain)}, nil
}

// MustParseAddress is ParseAddress for tests and literals; it panics on
// malformed input.
func MustParseAddress(s string) Address {
	a, err := ParseAddress(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders "local@domain".
func (a Address) String() string { return a.Local + "@" + a.Domain }

// IsZero reports whether the address is unset.
func (a Address) IsZero() bool { return a.Local == "" && a.Domain == "" }
