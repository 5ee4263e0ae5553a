// E-commerce scenario: the workload the paper's introduction motivates — a
// shop on FaaS whose traffic multiplies during a holiday sale (a concept
// shift), exercising SPES's scalability and adaptive designs.
//
// The trace is hand-built: checkout/API functions (Poisson, rate x10 during
// the sale), an hourly inventory-sync timer, an order-processing chain
// (payment -> fulfillment -> notification), and a flash-sale banner function
// invoked only in bursts.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/spes"
)

const (
	days      = 14
	slots     = days * 1440
	saleStart = 12 * 1440 // the sale begins exactly when simulation starts
)

func main() {
	rng := rand.New(rand.NewSource(11))
	tr := spes.NewTrace(slots)

	// Checkout API: Poisson, 1/min normally, 10/min during the sale.
	var checkout []spes.Event
	for t := 0; t < slots; t++ {
		rate := 1.0
		if t >= saleStart {
			rate = 10
		}
		if n := poisson(rng, rate); n > 0 {
			checkout = append(checkout, spes.Event{Slot: int32(t), Count: int32(n)})
		}
	}
	tr.AddFunction("checkout", "shop", "acme", spes.TriggerHTTP, checkout)

	// Inventory sync: hourly timer, unchanged by the sale.
	var sync []spes.Event
	for t := 17; t < slots; t += 60 {
		sync = append(sync, spes.Event{Slot: int32(t), Count: 1})
	}
	tr.AddFunction("inventory-sync", "shop", "acme", spes.TriggerTimer, sync)

	// Order chain: about half the checkout minutes produce an order;
	// payment fires then, and fulfillment/notification follow at 1-2
	// minute lags — the function-chaining pattern of Section III-B2.
	var payment, fulfillment, notify []spes.Event
	for _, e := range checkout {
		if rng.Intn(2) != 0 {
			continue
		}
		payment = append(payment, spes.Event{Slot: e.Slot, Count: 1})
		if int(e.Slot)+1 < slots {
			fulfillment = append(fulfillment, spes.Event{Slot: e.Slot + 1, Count: 1})
		}
		if int(e.Slot)+2 < slots {
			notify = append(notify, spes.Event{Slot: e.Slot + 2, Count: 1})
		}
	}
	tr.AddFunction("payment", "shop", "acme", spes.TriggerQueue, payment)
	tr.AddFunction("fulfillment", "shop", "acme", spes.TriggerOrchestration, fulfillment)
	tr.AddFunction("notification", "shop", "acme", spes.TriggerOrchestration, notify)

	// Flash-sale banner: silent for 12 days, then bursts every ~3 hours
	// during the sale — an unseen function SPES must handle online.
	var banner []spes.Event
	for t := saleStart + 30; t < slots; t += 170 + rng.Intn(40) {
		for i := 0; i < 6 && t+i < slots; i++ {
			banner = append(banner, spes.Event{Slot: int32(t + i), Count: int32(1 + rng.Intn(3))})
		}
	}
	tr.AddFunction("flash-banner", "shop", "acme", spes.TriggerHTTP, banner)

	train, simTr := tr.Split(saleStart)

	for _, policy := range []spes.Policy{
		spes.NewSPES(spes.DefaultSPESConfig()),
		spes.NewFixedKeepAlive(10),
		spes.NewDefuse(),
	} {
		res, err := spes.Run(policy, train, simTr, spes.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s  cold=%4d/%5d  wasted=%6d min  mean-loaded=%.2f\n",
			res.Policy, res.TotalColdStarts, res.TotalInvokedSlot, res.TotalWMT, res.MeanLoaded())
		// SPES labels each function; Run cloned policy per shard, so the
		// labels come from the Result.
		if res.Types != nil {
			for f := 0; f < tr.NumFunctions(); f++ {
				m := res.PerFunc[f]
				fmt.Printf("    %-16s type=%-14s cold=%3d/%4d wasted=%d\n",
					tr.Functions[f].Name, res.Types[f],
					m.ColdStarts, m.InvokedSlot, m.WMTMinutes)
			}
		}
	}
	fmt.Println("\nDespite the 10x sale-day surge and the never-before-seen banner")
	fmt.Println("function, SPES holds cold starts down by categorizing the timer and")
	fmt.Println("chain, absorbing the surge (dense/always-warm), and adapting online.")
}

// poisson draws a Poisson sample by Knuth's method; rates here are small.
func poisson(rng *rand.Rand, lambda float64) int {
	threshold := math.Exp(-lambda)
	l := 1.0
	for i := 0; ; i++ {
		l *= rng.Float64()
		if l <= threshold {
			return i
		}
	}
}
