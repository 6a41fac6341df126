package fabric

import (
	"errors"
	"strings"
	"testing"

	"cxlfork/internal/params"
)

// FuzzParseSpec drives arbitrary text through the topology DSL. The
// contract under fuzzing: Parse (and Build on anything Parse accepts)
// never panics, every rejection is one of the package's typed errors —
// malformed input must stay diagnosable, not collapse into ad-hoc
// strings — and no accepted link declares more than 64 streams
// (MaxStreams, restated).
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"",
		"# comment only\n",
		twoSwitch,
		GridSpec(4, 2, 6),
		GridSpec(1, 1, 1),
		// Duplicate node ids, within and across kinds.
		"host h0\nhost h0\nswitch s0\ndevice d0\nlink h0 s0\nlink d0 s0\n",
		"host n\nswitch n\ndevice d0\nlink n n\n",
		// Disconnected device and host.
		"host h0\nswitch s0\ndevice d0\ndevice dx\nlink h0 s0\nlink d0 s0\n",
		"host h0\nhost hx\nswitch s0\ndevice d0\nlink h0 s0\nlink d0 s0\n",
		// Zero-bandwidth, zero-stream, negative-latency links.
		"host h0\nswitch s0\ndevice d0\nlink h0 s0 bw=0\nlink d0 s0\n",
		"host h0\nswitch s0\ndevice d0\nlink h0 s0 streams=0\nlink d0 s0\n",
		"host h0\nswitch s0\ndevice d0\nlink h0 s0 streams=65\nlink d0 s0\n",
		"host h0\nswitch s0\ndevice d0\nlink h0 s0 streams=1000000000000\nlink d0 s0\n",
		"host h0\nswitch s0\ndevice d0\nlink h0 s0 lat=-1ns\nlink d0 s0\n",
		// Links that skip the switching layer, self-loops, duplicates.
		"host h0\nswitch s0\ndevice d0\nlink h0 d0\n",
		"host h0\nswitch s0\ndevice d0\nlink s0 s0\n",
		"host h0\nswitch s0\ndevice d0\nlink h0 s0\nlink s0 h0\nlink d0 s0\n",
		// Unknown endpoints, kinds, attributes; arity abuse.
		"link a b\n",
		"widget w0\n",
		"host\n",
		"host h0 extra\n",
		"host h0\nswitch s0\ndevice d0\nlink h0 s0 lat=???\nlink d0 s0\n",
		"host h0\nswitch s0\ndevice d0\nlink h0 s0 mtu=9000\nlink d0 s0\n",
		// Pathological text shapes.
		"host h0\r\nswitch s0\r\ndevice d0\r\nlink h0 s0\r\nlink d0 s0\r\n",
		strings.Repeat("host h0\n", 3),
		"\x00\x01\x02",
		"host \xff\nswitch s0\ndevice d0\nlink \xff s0\nlink d0 s0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	p := params.Default()
	typed := []error{ErrBadSpec, ErrDuplicateNode, ErrUnknownNode, ErrBadLink, ErrDisconnected, ErrEmptySpec}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := Parse(text)
		if err != nil {
			if spec != nil {
				t.Fatal("Parse returned both a spec and an error")
			}
			for _, want := range typed {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("untyped parse error: %v", err)
		}
		// Parse bounds every link's stream count, which sizes the
		// slots NewNet allocates.
		for _, l := range spec.Links {
			if l.Streams < 0 || l.Streams > 64 {
				t.Fatalf("accepted link %s-%s with %d streams", l.A, l.B, l.Streams)
			}
		}
		// Anything Parse accepts must build and answer routing queries
		// without panicking: Parse owns all structural validation.
		topo, err := spec.Build(p)
		if err != nil {
			t.Fatalf("parsed spec failed to build: %v", err)
		}
		if topo.MinLinkLatency() <= 0 {
			t.Fatal("built topology has non-positive min link latency")
		}
		for h := 0; h < topo.Hosts(); h++ {
			for d := 0; d < topo.Devices(); d++ {
				if topo.PathLat(h, d) <= 0 || topo.PathHops(h, d) < 2 {
					t.Fatalf("degenerate path h%d→d%d", h, d)
				}
			}
		}
	})
}
