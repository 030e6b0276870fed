#include "ccq/serve/server.hpp"

#include <algorithm>
#include <chrono>

#include "ccq/common/telemetry.hpp"
#include "ccq/serve/artifact.hpp"

namespace ccq::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// The telemetry clock is the steady clock in nanoseconds, so a park
/// deadline computed in server-clock ns maps back onto a wait_until
/// time point exactly (real-clock mode only — an injected clock parks
/// untimed, see ServeConfig::now_fn).
Clock::time_point to_time_point(std::uint64_t ns) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::nanoseconds(ns)));
}

}  // namespace

std::uint64_t InferenceServer::now_ns() const {
  return config_.now_fn ? config_.now_fn() : telemetry::ScopedTimer::now_ns();
}

InferenceServer::InferenceServer(ServeConfig config) : config_(config) {
  CCQ_CHECK(config_.workers >= 1, "server needs at least one worker");
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

ModelHandle InferenceServer::load(std::string name, hw::IntegerNetwork net,
                                  ModelConfig config) {
  // Publish under the server mutex: a submit that resolves the new
  // version by name must find it owned and in the workers' scan list,
  // and a racing shutdown cannot leave it in the registry without them.
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) throw ServerStoppedError();
  ModelHandle handle = registry_.publish(std::move(name), std::move(net),
                                         config);
  handle.model_->owner = this;
  active_.push_back(handle.model_);
  return handle;
}

ModelHandle InferenceServer::load(std::string name,
                                  const std::string& artifact_path,
                                  ModelConfig config) {
  return load(std::move(name), load_artifact(artifact_path), config);
}

void InferenceServer::unload(const std::string& name) {
  retire(registry_.take_all(name));
}

void InferenceServer::unload(const std::string& name, std::uint64_t version) {
  retire(registry_.take(name, version));
}

void InferenceServer::retire(const std::vector<ModelPtr>& models) {
  if (models.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++work_generation_;  // retired queues flush immediately: force rescans
    for (const ModelPtr& model : models) {
      model->retired = true;
      model->force = true;
      if (model->queue.empty() && model->in_flight == 0) {
        active_.erase(std::remove(active_.begin(), active_.end(), model),
                      active_.end());
      }
    }
  }
  // Wake the pool: retired queues flush immediately (no deadline hold).
  work_cv_.notify_all();
}

ModelHandle InferenceServer::resolve(const std::string& name) const {
  return registry_.resolve(name);
}

ModelHandle InferenceServer::resolve(const std::string& name,
                                     std::uint64_t version) const {
  return registry_.resolve(name, version);
}

std::future<void> InferenceServer::submit(const ModelHandle& model,
                                          const Tensor& sample, Tensor& out) {
  return submit(model, sample, out, SubmitOptions{});
}

std::future<void> InferenceServer::submit(const ModelHandle& model,
                                          const Tensor& sample, Tensor& out,
                                          const SubmitOptions& options) {
  CCQ_CHECK(sample.rank() == 3,
            "submit expects one CHW sample, got rank " +
                std::to_string(sample.rank()));
  detail::LoadedModel& loaded = model.model();
  CCQ_CHECK(options.rung < static_cast<std::int32_t>(loaded.net.rung_count()),
            "operating-point override " + std::to_string(options.rung) +
                " out of range: model " + loaded.name + " serves " +
                std::to_string(loaded.net.rung_count()) + " rung(s)");
  detail::Request request;
  request.input = &sample;
  request.output = &out;
  request.priority = options.priority;
  request.rung = options.rung < 0 ? -1 : options.rung;
  request.served_rung = options.served_rung;
  request.enqueue_ns = now_ns();
  request.deadline_us = options.deadline_us;
  // A deadline is a *relative* budget, so it cannot be expired at
  // admission; expiry is checked at dequeue (batch composition) time.
  request.deadline_ns = deadline_instant_ns(request.enqueue_ns,
                                            options.deadline_us);
  std::future<void> future = request.promise.get_future();
  // Shed victim, failed outside the lock (set_exception wakes a waiter).
  detail::Request shed;
  SlaAdmission admission = SlaAdmission::kQueued;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CCQ_CHECK(loaded.owner == this,
              "ModelHandle for " + loaded.name + " v" +
                  std::to_string(loaded.version) +
                  " was not loaded into this server");
    if (stopping_) {
      telemetry::add(telemetry::Counter::kServeRejected);
      telemetry::add_named(loaded.metrics.rejected);
      throw ServerStoppedError();
    }
    if (loaded.retired) {
      telemetry::add(telemetry::Counter::kServeRejected);
      telemetry::add_named(loaded.metrics.rejected);
      throw ModelRetiredError(loaded.name, loaded.version);
    }
    if (loaded.pinned_shape.empty()) {
      // Only a geometry the compiled network accepts may pin the batch
      // shape: over the TCP front end the first request is untrusted,
      // and an unchecked pin would both drive the engine's conv loops
      // from hostile dims and poison every later well-formed submit.
      try {
        loaded.net.check_input(sample.dim(0), sample.dim(1), sample.dim(2));
      } catch (const Error&) {
        telemetry::add(telemetry::Counter::kServeRejected);
        telemetry::add_named(loaded.metrics.rejected);
        throw;
      }
      loaded.pinned_shape = sample.shape();
    } else {
      CCQ_CHECK(sample.shape() == loaded.pinned_shape,
                "sample shape " + shape_str(sample.shape()) +
                    " does not match the input shape " +
                    shape_str(loaded.pinned_shape) + " pinned for model " +
                    loaded.name + " v" + std::to_string(loaded.version));
    }
    admission = sla_admit(loaded, std::move(request), vclock_, shed);
    if (admission == SlaAdmission::kRejected) {
      telemetry::add(telemetry::Counter::kServeRejected);
      telemetry::add_named(loaded.metrics.rejected);
      telemetry::add(telemetry::Counter::kServeShed);
      telemetry::add_named(
          loaded.metrics.shed[static_cast<std::size_t>(options.priority)]);
      throw QueueFullError(loaded.name, loaded.config.queue_capacity);
    }
    if (admission == SlaAdmission::kShed) {
      --total_queued_;
      telemetry::add(telemetry::Counter::kServeShed);
      telemetry::add_named(
          loaded.metrics.shed[static_cast<std::size_t>(shed.priority)]);
    }
    ++loaded.admitted;
    ++work_generation_;
    ++total_queued_;
    telemetry::add(telemetry::Counter::kServeRequests);
    telemetry::add_named(loaded.metrics.requests);
    telemetry::set_gauge(telemetry::Gauge::kServeQueueDepth,
                         static_cast<double>(total_queued_));
    telemetry::set_named_gauge(loaded.metrics.queue_depth,
                               static_cast<double>(loaded.queue.size()));
  }
  // notify_all: a worker parked on a batch-fill deadline only re-checks
  // its predicate on wakeup, and the notified thread is not guaranteed to
  // be the one able to take the work.
  work_cv_.notify_all();
  if (admission == SlaAdmission::kShed) {
    shed.promise.set_exception(std::make_exception_ptr(
        RequestShedError(loaded.name, shed.priority)));
  }
  return future;
}

std::future<void> InferenceServer::submit(const std::string& name,
                                          const Tensor& sample, Tensor& out) {
  return submit(resolve(name), sample, out);
}

void InferenceServer::worker_loop() {
  // Worker-owned execution state: a warm workspace (per-thread arenas
  // make reuse cache-local) and a private context so concurrent workers
  // never contend for the process-global pool.
  Workspace ws;
  const ExecContext ctx(config_.intra_op_threads);
  std::vector<detail::Request> batch;
  std::vector<detail::Request> expired;

  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || total_queued_ > 0; });
    if (total_queued_ == 0) {
      if (stopping_) return;  // drained: stop only once every queue is empty
      continue;
    }
    // One flush step (serve/sla.hpp); an unpinned batch's rung is the
    // controller's pick from the observed load (queue depth plus the
    // deadline-pressure window).  If nothing is flushable yet, park
    // until the earliest flush/deadline event and rescan.
    const std::uint64_t now = now_ns();
    batch.clear();
    const auto flush = sla_flush(
        active_, now, vclock_, expired, batch, [&](detail::LoadedModel& m) {
          return static_cast<std::int32_t>(m.point.decide(
              {m.queue.size(), now, m.admitted, m.deadline_misses}));
        });
    if (!flush.model) {
      // The event is stale the moment queue state changes: a new submit
      // to a model with a shorter hold (or a tighter deadline) creates
      // an earlier event, and re-parking until the old one would violate
      // that model's latency bound.  The generation bump makes the
      // predicate pass so the outer loop re-derives the event set.
      // Without one, nothing becomes flushable before the event.
      const std::uint64_t parked_generation = work_generation_;
      const auto parked = [&] {
        return stopping_ || work_generation_ != parked_generation ||
               now_ns() >= flush.next_event_ns;
      };
      if (config_.now_fn || flush.next_event_ns == kNoEventNs) {
        // No timed event (queued work can only become flushable through
        // a queue-state change), or an injected clock, where a timed
        // park against the real clock would be meaningless.  Either way
        // the park must yield the mutex — `continue` with a satisfied
        // wait predicate would spin without ever releasing it.
        work_cv_.wait(lock, parked);
      } else {
        work_cv_.wait_until(lock, to_time_point(flush.next_event_ns), parked);
      }
      continue;  // rescan with fresh deadlines
    }

    detail::LoadedModel& model = *flush.model;
    if (!expired.empty()) {  // their futures fail outside the lock
      total_queued_ -= expired.size();
      model.deadline_misses += expired.size();
      telemetry::add(telemetry::Counter::kServeDeadlineMiss, expired.size());
      telemetry::add_named(model.metrics.deadline_miss, expired.size());
    }
    telemetry::set_named_gauge(model.metrics.hold,
                               static_cast<double>(model.hold_ns) / 1000.0);
    const std::size_t take = batch.size();
    model.in_flight += take;
    total_queued_ -= take;
    total_in_flight_ += take;
    telemetry::set_gauge(telemetry::Gauge::kServeQueueDepth,
                         static_cast<double>(total_queued_));
    telemetry::set_named_gauge(model.metrics.queue_depth,
                               static_cast<double>(model.queue.size()));
    const bool more_work = total_queued_ > 0;
    lock.unlock();
    for (detail::Request& request : expired) {
      request.promise.set_exception(std::make_exception_ptr(
          DeadlineExceededError(model.name, request.deadline_us)));
    }
    expired.clear();
    if (more_work) work_cv_.notify_all();  // more work queued: wake peers
    if (take > 0) {
      run_batch(model, batch, ws, ctx, static_cast<std::size_t>(flush.rung));
    }
    lock.lock();
    model.in_flight -= take;
    total_in_flight_ -= take;
    if (model.retired && model.queue.empty() && model.in_flight == 0) {
      active_.erase(std::remove(active_.begin(), active_.end(), flush.model),
                    active_.end());
    }
    if (total_queued_ == 0 && total_in_flight_ == 0) idle_cv_.notify_all();
  }
}

void InferenceServer::run_batch(detail::LoadedModel& model,
                                std::vector<detail::Request>& batch,
                                Workspace& ws, const ExecContext& ctx,
                                std::size_t rung) const {
  const std::size_t n = batch.size();
  telemetry::add(telemetry::Counter::kServeBatches);
  telemetry::add_named(model.metrics.batches);
  telemetry::record_duration(telemetry::Timer::kServeBatchSize, n);
  telemetry::record_named_duration(model.metrics.batch_size, n);
  try {
    const Shape& chw = batch.front().input->shape();
    Tensor staging = ws.tensor_uninit({n, chw[0], chw[1], chw[2]});
    const std::size_t sample_floats = shape_numel(chw);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = batch[i].input->data();
      std::copy(src.begin(), src.end(),
                staging.data().begin() +
                    static_cast<std::ptrdiff_t>(i * sample_floats));
    }
    Tensor logits = model.net.forward(staging, ws, ctx, rung);
    ws.recycle(std::move(staging));
    const std::size_t classes = logits.dim(1);
    for (std::size_t i = 0; i < n; ++i) {
      Tensor& out = *batch[i].output;
      out.resize({classes});
      const auto row = logits.data().subspan(i * classes, classes);
      std::copy(row.begin(), row.end(), out.data().begin());
      if (batch[i].served_rung != nullptr) {
        *batch[i].served_rung = static_cast<std::int32_t>(rung);
      }
      const std::uint64_t latency = now_ns() - batch[i].enqueue_ns;
      telemetry::record_duration(telemetry::Timer::kServeLatency, latency);
      telemetry::record_named_duration(model.metrics.latency, latency);
      telemetry::record_named_duration(
          model.metrics.latency_by_priority[static_cast<std::size_t>(
              batch[i].priority)],
          latency);
      batch[i].promise.set_value();
    }
    ws.recycle(std::move(logits));
    if (model.config.slo_us > 0 && telemetry::metrics_enabled()) {
      // p99-vs-SLO gauge over the model's lifetime latency histogram:
      // > 1 means the p99 budget is being violated.
      const telemetry::TimerStats stats =
          telemetry::named_timer_stats(model.metrics.latency);
      if (stats.count > 0) {
        const double p99_us =
            static_cast<double>(telemetry::approx_quantile(stats, 0.99)) /
            1000.0;
        telemetry::set_named_gauge(
            model.metrics.p99_vs_slo,
            p99_us / static_cast<double>(model.config.slo_us));
      }
    }
  } catch (...) {
    // A failed batch fails each of its requests; later batches are
    // unaffected (the engine has no mutable state).
    const std::exception_ptr error = std::current_exception();
    for (detail::Request& request : batch) {
      try {
        request.promise.set_exception(error);
      } catch (const std::future_error&) {
        // promise already satisfied (failure struck mid-reply loop)
      }
    }
  }
}

void InferenceServer::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock,
                [&] { return total_queued_ == 0 && total_in_flight_ == 0; });
}

void InferenceServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;  // already shut down
    stopping_ = true;
    for (const ModelPtr& model : active_) model->force = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

std::size_t InferenceServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_queued_;
}

std::size_t InferenceServer::queue_depth(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t depth = 0;
  for (const ModelPtr& model : active_) {
    if (model->name == name) depth += model->queue.size();
  }
  return depth;
}

}  // namespace ccq::serve
