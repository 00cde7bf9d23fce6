package fiddle

import (
	"net"
	"strings"
	"testing"

	"github.com/darklab/mercury/internal/wire"
)

// fakeSolverd answers fiddle operations, rejecting machines named
// "ghost".
func fakeSolverd(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 2048)
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			op, err := wire.UnmarshalFiddleOp(buf[:n])
			if err != nil {
				continue
			}
			rep := &wire.FiddleReply{Status: wire.StatusOK}
			if len(op.Strings) > 0 && op.Strings[0] == "ghost" {
				rep = &wire.FiddleReply{Status: wire.StatusUnknown, Message: "unknown machine \"ghost\""}
			}
			out, _ := wire.AppendFiddleReply(nil, rep)
			conn.WriteToUDP(out, peer)
		}
	}()
	return conn.LocalAddr().String()
}

func TestClientConvenienceWrappers(t *testing.T) {
	addr := fakeSolverd(t)
	c, err := Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Apply(&wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"m1"}, Floats: []float64{38.6}}); err != nil {
		t.Error(err)
	}
	if err := c.Apply(&wire.FiddleOp{Op: wire.OpUnpinInlet, Strings: []string{"m1"}}); err != nil {
		t.Error(err)
	}
	if err := c.Apply(&wire.FiddleOp{Op: wire.OpSetSourceTemp, Strings: []string{"ac"}, Floats: []float64{27}}); err != nil {
		t.Error(err)
	}
	if err := c.Apply(&wire.FiddleOp{Op: wire.OpSetMachinePower, Strings: []string{"m1"}, Floats: []float64{1}}); err != nil {
		t.Error(err)
	}
	if err := c.Apply(&wire.FiddleOp{Op: wire.OpSetMachinePower, Strings: []string{"m1"}, Floats: []float64{0}}); err != nil {
		t.Error(err)
	}
}

func TestClientSurfacesRejection(t *testing.T) {
	addr := fakeSolverd(t)
	c, err := Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Apply(&wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"ghost"}, Floats: []float64{30}})
	if err == nil || !strings.Contains(err.Error(), "unknown machine") {
		t.Errorf("rejection = %v", err)
	}
}

func TestClientRejectsInvalidOpLocally(t *testing.T) {
	addr := fakeSolverd(t)
	c, err := Dial(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Marshal fails before anything hits the network.
	if err := c.Apply(&wire.FiddleOp{Op: 0x7F}); err == nil {
		t.Error("invalid op: want error")
	}
}

func TestClientTimesOutOnDeadDaemon(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := conn.LocalAddr().String()
	conn.Close()
	c, err := Dial(addr, 10_000_000, 1) // 10ms, 1 try
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Apply(&wire.FiddleOp{Op: wire.OpPinInlet, Strings: []string{"m1"}, Floats: []float64{30}}); err == nil {
		t.Error("dead daemon: want timeout error")
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("::bad::", 0, 0); err == nil {
		t.Error("bad address: want error")
	}
}
