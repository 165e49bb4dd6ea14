package sipmsg

import (
	"bytes"
	"fmt"
	"testing"
)

// scanMismatch checks the Scan/Parse contract on one datagram: Scan
// fails exactly when Parse does, with the same error, and on success
// every View field equals the matching Message field. It returns a
// description of the first disagreement, or "" when they agree.
func scanMismatch(raw []byte) string {
	var v View
	scanErr := Scan(raw, &v)
	m, parseErr := Parse(raw)
	if (scanErr == nil) != (parseErr == nil) {
		return fmt.Sprintf("accept/reject drift: Scan err=%v, Parse err=%v", scanErr, parseErr)
	}
	if parseErr != nil {
		if scanErr.Error() != parseErr.Error() {
			return fmt.Sprintf("error drift: Scan %q, Parse %q", scanErr, parseErr)
		}
		return ""
	}
	switch {
	case v.IsRequest() != m.IsRequest():
		return fmt.Sprintf("request %v, Parse says %v", v.IsRequest(), m.IsRequest())
	case string(v.Method) != string(m.Method):
		return fmt.Sprintf("method %q, Parse %q", v.Method, m.Method)
	case v.Status != m.StatusCode:
		return fmt.Sprintf("status %d, Parse %d", v.Status, m.StatusCode)
	case string(v.RURIUser) != m.RequestURI.User:
		return fmt.Sprintf("R-URI user %q, Parse %q", v.RURIUser, m.RequestURI.User)
	case string(v.RURIHost) != m.RequestURI.Host:
		return fmt.Sprintf("R-URI host %q, Parse %q", v.RURIHost, m.RequestURI.Host)
	case string(v.CallID) != m.CallID:
		return fmt.Sprintf("Call-ID %q, Parse %q", v.CallID, m.CallID)
	case v.ToTag != (m.To.Tag() != ""):
		return fmt.Sprintf("To tag %v, Parse tag %q", v.ToTag, m.To.Tag())
	case string(v.CSeqMethod) != string(m.CSeq.Method):
		return fmt.Sprintf("CSeq method %q, Parse %q", v.CSeqMethod, m.CSeq.Method)
	case !bytes.Equal(v.Body, m.Body):
		return fmt.Sprintf("body %q, Parse %q", v.Body, m.Body)
	}
	return ""
}

// Datagrams on which a routing tokenizer of its own once disagreed
// with Parse, each hiding or faking a cross-call alert at the ingress
// lanes: a Via Parse rejects, and a To whose last tag is empty.
const (
	divergentBareVia = "INVITE sip:victim@b.example.com SIP/2.0\r\n" +
		"Via: v\r\n" +
		"From: <sip:prankster@example.net>;tag=ft\r\n" +
		"To: <sip:victim@b.example.com>\r\n" +
		"Call-ID: refl@example.net\r\n" +
		"CSeq: 1 INVITE\r\n\r\n"
	divergentBareViaFlood = "INVITE sip:victim@b.example.com SIP/2.0\r\n" +
		"Via: v\r\n" +
		"From: <sip:prankster@example.net>;tag=ft\r\n" +
		"To: <sip:victim@b.example.com>\r\n" +
		"Call-ID: ff-0@example.net\r\n" +
		"CSeq: 1 INVITE\r\n\r\n"
	divergentEmptyLastTag = "INVITE sip:victim@b.example.com SIP/2.0\r\n" +
		"Via: SIP/2.0/UDP attacker.example.net:5060;branch=z9hG4bKdiv\r\n" +
		"From: <sip:prankster@example.net>;tag=ft\r\n" +
		"To: <sip:victim@b.example.com>;tag=x;tag=\r\n" +
		"Call-ID: fh-0@example.net\r\n" +
		"CSeq: 1 INVITE\r\n\r\n"
)

// TestScanMatchesParse pins the contract on the shapes a cheaper
// tokenizer would get wrong — folded lines, quoted display names
// hiding separators, unknown methods, duplicate tags — and on
// malformed datagrams both must reject.
func TestScanMatchesParse(t *testing.T) {
	cases := map[string]string{
		"baseline":            sampleInvite,
		"bare via":            divergentBareVia,
		"empty last tag":      divergentEmptyLastTag,
		"non-empty last tag":  "SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK1\r\nFrom: <sip:x@y>;tag=1\r\nTo: <sip:a@b>;tag=;tag=2\r\nCall-ID: c\r\nCSeq: 1 INVITE\r\n\r\n",
		"bare tag parameter":  "SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK1\r\nFrom: <sip:x@y>;tag=1\r\nTo: <sip:a@b>;tag=2;tag\r\nCall-ID: c\r\nCSeq: 1 INVITE\r\n\r\n",
		"addr-spec to tag":    "SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK1\r\nFrom: sip:x@y;tag=1\r\nTo: sip:a@b ; tag = 2 \r\nCall-ID: c\r\nCSeq: 1 INVITE\r\n\r\n",
		"compact forms":       "BYE sip:alice@a.com SIP/2.0\r\nv: SIP/2.0/UDP b.com;branch=z9hG4bKc\r\nf: <sip:bob@b.com>;tag=a\r\nt: <sip:alice@a.com>;tag=19\r\ni: compact@b.com\r\nCSeq: 2 BYE\r\nl: 4\r\n\r\nv=0\r\n",
		"multi via":           "SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP p.b.com;branch=z9hG4bKp1;note=\"a,b\", SIP/2.0/UDP a.com:5060;branch=z9hG4bKu1\r\nFrom: <sip:a@a.com>;tag=1\r\nTo: <sip:b@b.com>;tag=2\r\nCall-ID: mv@a.com\r\nCSeq: 7 INVITE\r\n\r\n",
		"multi via bad entry": "SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP p.b.com;branch=z9hG4bKp1, garbage\r\nFrom: <sip:a@a.com>;tag=1\r\nTo: <sip:b@b.com>;tag=2\r\nCall-ID: mv@a.com\r\nCSeq: 7 INVITE\r\n\r\n",
		"folded header": "INVITE sip:bob@b.example.com SIP/2.0\r\n" +
			"Via: SIP/2.0/UDP ua1.a.example.com:5060\r\n" +
			"From: <sip:alice@a.example.com>;tag=1\r\n" +
			"To: <sip:bob@b.example.com>\r\n" +
			"Call-ID: bail@a.example.com\r\n" +
			"CSeq: 1\r\n INVITE\r\n\r\n",
		"folded call-id and cseq": "INVITE sip:bob@b.example.com SIP/2.0\r\n" +
			"Via: SIP/2.0/UDP ua1.a.example.com:5060\r\n" +
			"From: <sip:alice@a.example.com>;tag=1\r\n" +
			"To: <sip:bob@b.example.com>\r\n" +
			"Call-ID:\r\n fold@a.example.com\r\n" +
			"CSeq: 1\r\n\tINVITE\r\n\r\n",
		"quoted display name": "INVITE sip:bob@b.example.com SIP/2.0\r\n" +
			"Via: SIP/2.0/UDP ua1.a.example.com:5060\r\n" +
			"From: <sip:alice@a.example.com>;tag=1\r\n" +
			"To: \"Bob; tag=evil\" <sip:bob@b.example.com>\r\n" +
			"Call-ID: bail@a.example.com\r\n" +
			"CSeq: 1 INVITE\r\n\r\n",
		"unknown method":    "FONDLE sip:b@b SIP/2.0\r\nVia: SIP/2.0/UDP h\r\nFrom: <sip:x@y>\r\nTo: <sip:b@b>\r\nCall-ID: c\r\nCSeq: 1 FONDLE\r\n\r\n",
		"unknown method 2":  "FONDLE sip:b@b SIP/2.0\r\n\r\n",
		"missing call-id":   "INVITE sip:bob@b.example.com SIP/2.0\r\nVia: v\r\nFrom: f\r\nTo: t\r\nCSeq: 1 INVITE\r\n\r\n",
		"no start line":     "\r\n\r\n",
		"garbage":           "\x00\x01\x02\x03",
		"bad status":        "SIP/2.0 9x9 Weird\r\nCall-ID: a@b\r\n\r\n",
		"cseq overflow":     "INVITE sip:b@b SIP/2.0\r\nVia: v\r\nFrom: f\r\nTo: t\r\nCall-ID: a@b\r\nCSeq: 99999999999 INVITE\r\n\r\n",
		"reserved uri byte": "INVITE sip:b@b<x SIP/2.0\r\nVia: SIP/2.0/UDP h\r\nFrom: <sip:x@y>\r\nTo: <sip:b@b>\r\nCall-ID: c\r\nCSeq: 1 INVITE\r\n\r\n",
		"uri port":          "INVITE sip:b@b:5060;transport=udp SIP/2.0\r\nVia: SIP/2.0/UDP h:5060\r\nFrom: <sip:x@y:1>\r\nTo: <sip:b@b:70000>\r\nCall-ID: c\r\nCSeq: 1 INVITE\r\n\r\n",
		"bad contact":       "INVITE sip:b@b SIP/2.0\r\nVia: SIP/2.0/UDP h\r\nFrom: <sip:x@y>\r\nTo: <sip:b@b>\r\nCall-ID: c\r\nCSeq: 1 INVITE\r\nContact: <mailto:x>\r\n\r\n",
		"bad max-forwards":  "INVITE sip:b@b SIP/2.0\r\nVia: SIP/2.0/UDP h\r\nFrom: <sip:x@y>\r\nTo: <sip:b@b>\r\nCall-ID: c\r\nCSeq: 1 INVITE\r\nMax-Forwards: -1\r\n\r\n",
		"truncated body": "INVITE sip:bob@b.example.com SIP/2.0\r\n" +
			"Via: SIP/2.0/UDP ua1.a.example.com:5060\r\n" +
			"From: <sip:alice@a.example.com>;tag=1\r\n" +
			"To: <sip:bob@b.example.com>\r\n" +
			"Call-ID: bail@a.example.com\r\n" +
			"CSeq: 1 INVITE\r\n" +
			"Content-Length: 999\r\n\r\nshort",
		"clamped body": "INVITE sip:bob@b SIP/2.0\r\nVia: SIP/2.0/UDP h\r\nFrom: <sip:x@y>\r\nTo: <sip:b@b>\r\nCall-ID: c\r\nCSeq: 1 INVITE\r\n" +
			"Content-Length: 4\r\n\r\nv=0\r\ntrailing",
		"no blank line": "INVITE sip:bob@b SIP/2.0\r\nVia: SIP/2.0/UDP h\r\nFrom: <sip:x@y>\r\nTo: <sip:b@b>\r\nCall-ID: c\r\nCSeq: 1 INVITE\r\n",
	}
	for name, raw := range cases {
		if d := scanMismatch([]byte(raw)); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
	for i, raw := range fuzzSeedMessages {
		if d := scanMismatch([]byte(raw)); d != "" {
			t.Errorf("fuzz seed %d: %s", i, d)
		}
	}
}

// FuzzSIPScan is the differential fuzz target for the Scan/Parse
// contract: on any bytes, Scan accepts exactly when Parse does, with
// the same error, and the View it fills agrees field by field with
// the parsed Message. The ingress lanes route on the View and the
// shards detect on the Message, so a disagreement misroutes a packet
// or hides an alert.
func FuzzSIPScan(f *testing.F) {
	f.Add([]byte("INVITE sip:bob@b.example.com SIP/2.0\r\n" +
		"Via: SIP/2.0/UDP ua1.a.example.com:5060;branch=z9hG4bKx\r\n" +
		"From: <sip:alice@a.example.com>;tag=1\r\n" +
		"To: <sip:bob@b.example.com>\r\n" +
		"Call-ID: bail@a.example.com\r\n" +
		"CSeq: 1 INVITE\r\n\r\n"))
	f.Add([]byte("SIP/2.0 180 Ringing\r\n" +
		"Via: SIP/2.0/UDP p.example.com;branch=z9hG4bKp\r\n" +
		"From: <sip:alice@a.example.com>;tag=1\r\n" +
		"To: <sip:bob@b.example.com>;tag=2\r\n" +
		"Call-ID: ring@a.example.com\r\n" +
		"CSeq: 1 INVITE\r\n\r\n"))
	f.Add([]byte("INVITE sip:bob@b SIP/2.0\r\n" +
		"Via: v\r\nFrom: f\r\nTo: t\r\nCall-ID: c\r\nCSeq: 1 INVITE\r\n" +
		"Content-Length: 4\r\n\r\nv=0\r\ntrailing"))
	f.Add([]byte("\r\n\r\n"))
	f.Add([]byte("\x00\x01\x02\x03"))
	f.Add([]byte(divergentBareVia))
	f.Add([]byte(divergentBareViaFlood))
	f.Add([]byte(divergentEmptyLastTag))

	f.Fuzz(func(t *testing.T, raw []byte) {
		if d := scanMismatch(raw); d != "" {
			t.Fatalf("%s\nwire: %q", d, raw)
		}
	})
}
