#include "sip/dispatch.hpp"

#include "rt/trace.hpp"
#include "sip/proxy.hpp"
#include "support/assert.hpp"

namespace rg::sip {

Job::Job(std::string wire_text) : wire(std::move(wire_text)), state(0) {}

ThreadPerRequestDispatcher::ThreadPerRequestDispatcher(std::size_t max_parallel)
    : max_parallel_(max_parallel == 0 ? 1 : max_parallel) {}

std::vector<std::string> ThreadPerRequestDispatcher::dispatch(
    Proxy& proxy, const std::vector<std::string>& wires) {
  RG_FRAME();
  std::vector<std::string> responses;
  responses.reserve(wires.size());

  for (std::size_t base = 0; base < wires.size(); base += max_parallel_) {
    const std::size_t count = std::min(max_parallel_, wires.size() - base);
    std::vector<std::unique_ptr<Job>> jobs;
    std::vector<rt::thread> threads;
    jobs.reserve(count);
    threads.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      // The job is initialised *before* the worker thread exists, so the
      // child's first segment happens-after every write (Fig. 10).
      auto job = std::make_unique<Job>(wires[base + i]);
      rt::mem_alloc(job.get(), sizeof(Job), std::source_location::current());
      job->state.store(0);
      {
        // Ingress span: roots the transaction's trace on the dispatcher
        // thread; the worker continues it via the handoff.
        rt::TraceSpan ingress("sip.ingress", base + i + 1);
        job->handoff = rt::trace_handoff();
      }
      Job* raw = job.get();
      jobs.push_back(std::move(job));
      threads.emplace_back(
          [&proxy, raw] {
            RG_FRAME();
            rt::TraceSpan span("sip.worker", 0, obs::TxnClass::Other,
                               raw->handoff);
            raw->state.store(1);
            raw->response_marker.write();
            raw->response = proxy.handle_wire(raw->wire);
            raw->state.store(2);
          },
          "request-worker");
    }
    // "After a while the first thread waits for the second thread to finish,
    // before it uses the memory again." (joinable() guard: threads created
    // during post-deadlock teardown are empty handles.)
    for (rt::thread& t : threads)
      if (t.joinable()) t.join();
    for (auto& job : jobs) {
      RG_ASSERT(job->state.load() == 2);
      job->response_marker.read();
      responses.push_back(job->response);
      rt::mem_free(job.get(), std::source_location::current());
    }
  }
  return responses;
}

ThreadPoolDispatcher::ThreadPoolDispatcher(std::size_t workers)
    : workers_(workers == 0 ? 1 : workers) {}

std::vector<std::string> ThreadPoolDispatcher::dispatch(
    Proxy& proxy, const std::vector<std::string>& wires) {
  RG_FRAME();
  rt::message_queue<Job*> requests("pool-requests");
  rt::message_queue<Job*> done("pool-done");

  // Workers are created BEFORE any job exists — the ownership pattern of
  // Fig. 11: create/join edges cannot order job accesses.
  std::vector<rt::thread> workers;
  workers.reserve(workers_);
  for (std::size_t i = 0; i < workers_; ++i) {
    workers.emplace_back(
        [&proxy, &requests, &done] {
          RG_FRAME();
          Job* job = nullptr;
          while (requests.get(job)) {
            rt::TraceSpan span("sip.worker", 0, obs::TxnClass::Other,
                               job->handoff);
            job->state.store(1);  // <- the Fig. 11 warning site
            job->response_marker.write();
            job->response = proxy.handle_wire(job->wire);
            job->state.store(2);
            done.put(job);
          }
        },
        "pool-worker");
  }

  std::size_t seq = 0;
  for (const std::string& wire : wires) {
    auto* job = new Job(wire);
    rt::mem_alloc(job, sizeof(Job), std::source_location::current());
    job->state.store(0);  // initialised after the workers already run
    {
      rt::TraceSpan ingress("sip.ingress", ++seq);
      job->handoff = rt::trace_handoff();
    }
    requests.put(job);
  }

  std::vector<std::string> responses;
  responses.reserve(wires.size());
  for (std::size_t i = 0; i < wires.size(); ++i) {
    Job* job = nullptr;
    const bool got = done.get(job);
    RG_ASSERT(got && job != nullptr);
    job->response_marker.read();
    responses.push_back(job->response);
    rt::mem_free(job, std::source_location::current());
    delete job;
  }

  requests.close();
  for (rt::thread& t : workers)
    if (t.joinable()) t.join();
  return responses;
}

}  // namespace rg::sip
