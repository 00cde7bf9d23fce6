package sensor

import (
	"net"
	"strings"
	"sync"
	"testing"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// fakeDaemon answers sensor reads with a fixed reply, without pulling
// in the full solver.
func fakeDaemon(t *testing.T, temp units.Celsius, failNode string) string {
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
			var req wire.SensorReadMany
			if err := wire.UnmarshalSensorReadManyInto(&req, buf[:n], nil); err != nil {
				continue
			}
			rep := wire.SensorReplyMany{Status: wire.StatusOK}
			for i, p := range req.Probes {
				if p.Node == failNode {
					rep = wire.SensorReplyMany{Status: wire.StatusUnknown, Failed: i, Message: "unknown node"}
					break
				}
				rep.Temps = append(rep.Temps, temp)
			}
			out, _ := wire.AppendSensorReplyMany(nil, &rep)
			conn.WriteToUDP(out, peer)
		}
	}()
	return conn.LocalAddr().String()
}

func TestOpenReadClose(t *testing.T) {
	addr := fakeDaemon(t, 42.5, "")
	sd, err := Open(addr, "m1", "cpu")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sd.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got != 42.5 {
		t.Errorf("Read = %v", got)
	}
	if sd.Machine() != "m1" || sd.Node() != "cpu" {
		t.Errorf("identity = %s/%s", sd.Machine(), sd.Node())
	}
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenValidatesNode(t *testing.T) {
	addr := fakeDaemon(t, 42.5, "ghost")
	if _, err := Open(addr, "m1", "ghost"); err == nil {
		t.Error("open of failing node: want error")
	}
}

func TestOpenBadAddress(t *testing.T) {
	if _, err := Open("not::an::addr", "m1", "cpu"); err == nil {
		t.Error("bad address: want error")
	}
}

func TestOpenNoDaemon(t *testing.T) {
	// A port with nothing listening: the open probe must time out.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := conn.LocalAddr().String()
	conn.Close()
	_, err = OpenOptions(addr, "m1", "cpu", Options{})
	if err == nil || !strings.Contains(err.Error(), "m1/cpu") {
		t.Errorf("dead daemon: err = %v, want an error naming m1/cpu", err)
	}
}

// TestListHelpers: the list helpers (ListMachines, ListNodes) are
// retired with the list protocol; a tool that wants every node of a
// machine names them from its model and reads them in one ReadMany,
// one temperature per probe, in order.
func TestListHelpers(t *testing.T) {
	addr := fakeDaemon(t, 33.5, "")
	r, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	probes := []Probe{{Machine: "m1", Node: "cpu"}, {Machine: "m1", Node: "disk_platters"}, {Machine: "m1", Node: "cpu_air"}}
	dst := make([]units.Celsius, len(probes))
	if err := r.ReadMany(probes, dst); err != nil {
		t.Fatal(err)
	}
	for i, c := range dst {
		if c != 33.5 {
			t.Errorf("probe %d = %v, want 33.5", i, c)
		}
	}
}

func TestOverLongNames(t *testing.T) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	addr := fakeDaemon(t, 0, "")
	if _, err := Open(addr, string(long), "cpu"); err == nil {
		t.Error("overlong machine name: want error")
	}
}

// TestConcurrentReadsTakeTurns: reads share the sensor's request and
// reply scratch and the client's reply buffer, so concurrent readers,
// traced and untraced, must take turns (run under -race).
func TestConcurrentReadsTakeTurns(t *testing.T) {
	addr := fakeDaemon(t, 42.5, "")
	sd, err := Open(addr, "m1", "cpu")
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		tc := causal.Context{}
		if g%2 == 1 {
			tc = causal.Context{Trace: uint64(g), Span: 1}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got, err := sd.ReadCtx(tc); err != nil || got != 42.5 {
					t.Errorf("ReadCtx = %v, %v; want 42.5", got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
