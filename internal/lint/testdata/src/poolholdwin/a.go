// Fixture for the poolhold analyzer: the function literal passed to a
// Pool's Run method holds a bounded slot and must not block on work that
// might itself need one.
package poolholdwin

import (
	"context"
	"sync"
)

// Pool mimics the serving layer's bounded worker pool: fn runs while
// holding one of the pool's slots.
type Pool struct{ sem chan struct{} }

func (p *Pool) Run(ctx context.Context, fn func() error) error {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	return fn()
}

// Group mimics singleflight.Group.
type Group struct{ mu sync.Mutex }

func (g *Group) Do(key string, fn func() (any, error)) (any, error) { return fn() }

// Cache mimics the result cache's singleflight entry point.
type Cache struct{}

func (c *Cache) GetOrCompute(key string, fn func() (any, error)) (any, error) { return fn() }

func (c *Cache) getOrCompute(key string, store bool, fn func() (any, error)) (any, error) {
	return fn()
}

func bad(ctx context.Context, p *Pool, g *Group, c *Cache, ch chan int, wg *sync.WaitGroup) {
	_ = p.Run(ctx, func() error {
		<-ch                                   // want `channel receive while holding a pool slot`
		wg.Wait()                              // want `WaitGroup\.Wait waits while holding a pool slot`
		_, _ = g.Do("k", nil)                  // want `Group\.Do \(singleflight\) waits while holding a pool slot`
		_, _ = c.GetOrCompute("k", nil)        // want `Cache\.GetOrCompute \(singleflight\) waits while holding a pool slot`
		_, _ = c.getOrCompute("k", false, nil) // want `Cache\.getOrCompute \(singleflight\) waits while holding a pool slot`
		select {                               // want `select without default blocks while holding a pool slot`
		case v := <-ch:
			_ = v
		}
		return nil
	})
}

// good shows the accepted forms: goroutines block their own stack, and a
// select with a default clause never blocks.
func good(ctx context.Context, p *Pool, ch chan int) {
	_ = p.Run(ctx, func() error {
		go func() { <-ch }()
		select {
		case v := <-ch:
			_ = v
		default:
		}
		return nil
	})
}

// annotated shows the escape hatch with a deadlock-freedom argument.
func annotated(ctx context.Context, p *Pool, ch chan int) {
	_ = p.Run(ctx, func() error {
		//lint:poolhold ch is buffered and its sender never takes a pool slot
		<-ch
		return nil
	})
}

// Runner is a control: its name does not contain Pool, so its Run method
// opens no slot window.
type Runner struct{}

func (r *Runner) Run(ctx context.Context, fn func() error) error { return fn() }

func control(ctx context.Context, r *Runner, ch chan int) {
	_ = r.Run(ctx, func() error {
		<-ch
		return nil
	})
}

// outside shows that the same blocking calls are fine outside a window.
func outside(ch chan int, wg *sync.WaitGroup) {
	<-ch
	wg.Wait()
}
