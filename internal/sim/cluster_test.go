package sim

import (
	"fmt"
	"net"
	"testing"
)

// TestTCPListenSkipsLeasedPorts: a fresh TCP listener never takes a
// port leased to a node that may restart on it, even when the port is
// free at the socket level. Half of the band is leased by hand.
func TestTCPListenSkipsLeasedPorts(t *testing.T) {
	var tr TCPTransport
	var held []string
	leases.Lock()
	for p := 20000; p < 32000; p += 2 {
		if a := fmt.Sprintf("127.0.0.1:%d", p); !leases.ports[a] {
			leases.ports[a] = true
			held = append(held, a)
		}
	}
	leases.Unlock()
	defer func() {
		for _, a := range held {
			tr.Release(a)
		}
	}()
	isHeld := make(map[string]bool, len(held))
	for _, a := range held {
		isHeld[a] = true
	}
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			tr.Release(ln.Addr().String())
			ln.Close()
		}
	}()
	for i := 0; i < 50; i++ {
		ln, err := tr.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		a := ln.Addr().String()
		if isHeld[a] {
			t.Fatalf("Listen returned the leased address %s", a)
		}
		leases.Lock()
		leased := leases.ports[a]
		leases.Unlock()
		if !leased {
			t.Fatalf("Listen did not lease %s", a)
		}
	}
}
