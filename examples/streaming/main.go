// Streaming: the token-streaming data plane end to end — a pinned-session
// conversation over SSE, with first-token latency printed next to the
// whole-response latency for every turn.
//
// Two replicas serve one chat model behind a session-affine gateway. A
// single conversation sends sequential turns with stream:true; each turn
// re-sends the grown history, so prompts get longer and the buffered wait
// would grow with them. The streamed client instead sees its first token
// as soon as prefill finishes — the gap between the two columns is what
// the streaming data plane buys an interactive user.
//
//	go run ./examples/streaming
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/vhttp"
	"repro/internal/vllm"
)

func main() {
	s := site.New(site.Options{Small: true, Seed: 7})
	d := core.NewDeployer(s)
	model := llm.Llama318B

	var failure error
	done := false
	s.Eng.Go("streaming-demo", func(p *sim.Proc) {
		defer func() { done = true }()
		if failure = core.SeedModel(p, s.HopsLustre, model); failure != nil {
			return
		}

		fmt.Println("deploying 2 replicas behind a session-affine gateway...")
		dp, err := d.Deploy(p, core.VLLMPackage(), core.PlatformHops, core.DeployConfig{
			Model: model, TensorParallel: 1, MaxModelLen: 16384, Offline: true,
			Replicas: 2, RoutePolicy: "session",
		})
		if err != nil {
			failure = err
			return
		}
		defer dp.Stop()
		fmt.Printf("  endpoint: %s\n\n", dp.BaseURL)

		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		history := []vllm.ChatMessage{}
		const turns = 8
		var ttftSum, e2eSum time.Duration

		fmt.Println("turn  prompt   first token   whole response")
		for i := 0; i < turns; i++ {
			history = append(history, vllm.ChatMessage{
				Role: "user",
				Content: fmt.Sprintf("Turn %d: keep going — more detail on the cluster, "+
					"its filesystems, and how the GPU partitions are laid out.", i),
			})
			body, _ := json.Marshal(vllm.ChatRequest{
				Messages: history, MaxTokens: 192, SessionID: "alice", Stream: true,
			})
			t0 := p.Now()
			resp, err := client.Do(p, &vhttp.Request{
				Method: "POST", URL: dp.BaseURL + "/v1/chat/completions",
				Header: map[string]string{"Content-Type": "application/json"},
				Body:   body,
			})
			if err != nil || resp.Status != 200 || resp.Stream == nil {
				failure = fmt.Errorf("turn %d: not a streamed 200: %v %+v", i, err, resp)
				return
			}
			var ttft time.Duration
			var reply strings.Builder
			var prompt int
			for {
				ch, ok := resp.Stream.Next(p)
				if !ok {
					break
				}
				payload, isEvent := vllm.ParseSSE(ch.Data)
				if !isEvent || string(payload) == "[DONE]" {
					continue
				}
				d, err := vllm.DecodeChatChunk(payload)
				if err != nil {
					continue
				}
				if len(d.Content) > 0 {
					if ttft == 0 {
						ttft = p.Now().Sub(t0)
					}
					reply.Write(d.Content)
				}
				if d.HasUsage {
					prompt = d.Usage.PromptTokens
				}
			}
			if err := resp.Stream.Err(); err != nil {
				failure = fmt.Errorf("turn %d: stream truncated: %v", i, err)
				return
			}
			e2e := p.Now().Sub(t0)
			ttftSum += ttft
			e2eSum += e2e
			fmt.Printf("%4d  %6d   %11s   %14s\n",
				i, prompt, ttft.Round(time.Millisecond), e2e.Round(time.Millisecond))
			// Fold the streamed answer back into the conversation.
			history = append(history, vllm.ChatMessage{Role: "assistant", Content: reply.String()})
			p.Sleep(5 * time.Second) // think time between turns
		}

		gw := dp.Gateway()
		st := gw.Stats()
		meanTTFT := ttftSum / turns
		meanE2E := e2eSum / turns
		fmt.Printf("\nmean first token %s vs mean whole response %s (%.1fx earlier)\n",
			meanTTFT.Round(time.Millisecond), meanE2E.Round(time.Millisecond),
			float64(meanE2E)/float64(meanTTFT))
		fmt.Printf("gateway: %d streams, %d truncated, %d retries\n",
			st.Streams, st.StreamsTruncated, st.Retries)
		switch {
		case meanTTFT <= 0 || meanTTFT*2 >= meanE2E:
			failure = fmt.Errorf("first-token latency %s did not beat whole-response %s", meanTTFT, meanE2E)
		case st.Streams != turns || st.StreamsTruncated != 0:
			failure = fmt.Errorf("gateway stream accounting off: %+v", st)
		}
	})
	for i := 0; i < 10000 && !done; i++ {
		s.Eng.RunFor(time.Minute)
	}
	if failure != nil {
		log.Fatal(failure)
	}
	if !done {
		log.Fatal("simulation did not converge")
	}
}
