package transport

import "testing"

// BenchmarkTCPFirehose streams b.N round-stamped frames from one node to
// another as fast as the producer can hand them over — the pipelined-rounds
// regime where the protocol runs ahead of the network. The batched path
// coalesces the backlog into few large writes (watch the frames/write
// metric); the per-message path pays one synchronous write per frame.
func BenchmarkTCPFirehose(b *testing.B) {
	for _, mode := range []string{"batched", "permessage"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			nodes, err := NewTCPMesh(2, []byte("bench-key"))
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				for _, nd := range nodes {
					_ = nd.Close()
				}
			}()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					<-nodes[1].Recv()
				}
			}()
			batch := make([]Message, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "batched" {
					batch[0] = Message{To: 1, Round: i, Value: float64(i)}
					if err := nodes[0].SendBatch(batch); err != nil {
						b.Fatal(err)
					}
				} else {
					if err := nodes[0].Send(Message{To: 1, Round: i, Value: float64(i)}); err != nil {
						b.Fatal(err)
					}
				}
			}
			<-done
			b.StopTimer()
			if w := nodes[0].Counters().BatchWrites; w > 0 {
				b.ReportMetric(float64(nodes[0].Counters().FramesSent)/float64(w), "frames/write")
			}
		})
	}
}

// BenchmarkEncode measures frame construction + HMAC signing: Encode into
// a fresh frame, and AppendFrame into a reused batch buffer (the peer
// writer's path, which allocates nothing).
func BenchmarkEncode(b *testing.B) {
	codec, err := NewCodec([]byte("bench-key"))
	if err != nil {
		b.Fatal(err)
	}
	m := Message{Round: 12, From: 3, To: 7, Value: 3.14159}
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := codec.Encode(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AppendFrame", func(b *testing.B) {
		buf := make([]byte, 0, readBufFrames*FrameSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(buf) == cap(buf) {
				buf = buf[:0]
			}
			if buf, err = codec.AppendFrame(buf, m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecode measures parsing + HMAC verification: of one frame from
// Encode, and of each frame in turn of a reader-buffer-sized AppendFrame
// batch (the view the buffered TCP reader gives).
func BenchmarkDecode(b *testing.B) {
	codec, err := NewCodec([]byte("bench-key"))
	if err != nil {
		b.Fatal(err)
	}
	m := Message{Round: 12, From: 3, To: 7, Value: 3.14159}
	b.Run("Encode", func(b *testing.B) {
		frame, err := codec.Encode(m)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := codec.Decode(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AppendFrame", func(b *testing.B) {
		var batch []byte
		for r := 0; r < readBufFrames; r++ {
			m.Round = r
			if batch, err = codec.AppendFrame(batch, m); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (i % readBufFrames) * FrameSize
			if _, err := codec.Decode(batch[off : off+FrameSize]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
