#include "backing/memory_tier.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vmp::backing
{

MemoryTier::MemoryTier(EventQueue &events, const TierConfig &config)
    : events_(events), cfg_(config),
      images_(config.diskLatencyNs, config.pageBytes)
{
    for (std::size_t k = 0; k < kBackendKinds; ++k) {
        models_[k] = BackendModel::forKind(static_cast<BackendKind>(k),
                                           cfg_.diskLatencyNs);
    }
    if (cfg_.mode == TierMode::Async) {
        arena_ = std::make_unique<FrameArena>(cfg_.arenaFrames,
                                              cfg_.pageBytes);
    }
}

void
MemoryTier::setBackend(Asid asid, BackendKind kind)
{
    backendOf_[asid] = kind;
}

BackendKind
MemoryTier::backendOf(Asid asid) const
{
    const auto it = backendOf_.find(asid);
    return it == backendOf_.end() ? cfg_.defaultBackend : it->second;
}

const BackendModel &
MemoryTier::modelOf(Asid asid) const
{
    return models_[static_cast<std::size_t>(backendOf(asid))];
}

std::uint32_t
MemoryTier::dirtyHighWater() const
{
    if (cfg_.dirtyHighWater != 0)
        return cfg_.dirtyHighWater;
    return std::max<std::uint32_t>(1, cfg_.arenaFrames / 2);
}

std::uint64_t
MemoryTier::spaceGen(Asid asid) const
{
    const auto it = spaceGen_.find(asid);
    return it == spaceGen_.end() ? 0 : it->second;
}

void
MemoryTier::attachDma(mem::VmeBus &bus, std::uint32_t master_id)
{
    if (dma_)
        panic("memory tier: DMA attached twice");
    dma_ = std::make_unique<mem::DmaDevice>(master_id, bus);
}

// --------------------------------------------------------------------
// Mirror mode: the legacy passive store, verbatim
// --------------------------------------------------------------------

void
MemoryTier::fetchMirror(Asid asid, std::uint64_t vpn, FetchDone done)
{
    // One flat-latency event with the image plane read inside it —
    // the exact event sequence (and name) of the old VmSystem path,
    // so mirror-mode fingerprints match the pre-tier simulator.
    events_.scheduleIn(
        images_.latency(),
        [this, asid, vpn, done = std::move(done)] {
            done(images_.fetch(asid, vpn));
        },
        "page-in");
}

void
MemoryTier::storeMirror(Asid asid, std::uint64_t vpn,
                        std::vector<std::uint8_t> data, Done done)
{
    events_.scheduleIn(
        images_.latency(),
        [this, asid, vpn, data = std::move(data),
         done = std::move(done)]() mutable {
            images_.store(asid, vpn, std::move(data));
            done();
        },
        "page-out");
}

// --------------------------------------------------------------------
// Page-in path
// --------------------------------------------------------------------

void
MemoryTier::fetchPage(Asid asid, std::uint64_t vpn, Addr host_paddr,
                      FetchDone done)
{
    if (cfg_.mode == TierMode::Mirror) {
        fetchMirror(asid, vpn, std::move(done));
        return;
    }

    const Tick start = events_.now();
    const auto slot = arena_->lookup(asid, vpn);
    if (slot) {
        const ArenaFrame &frame = arena_->frame(*slot);
        ++arenaHits_;
        if (frame.prefetched) {
            ++prefetchHits_;
            arena_->markDemanded(*slot);
        }
        // Copy now: the slot can be reclaimed before the event fires.
        auto image = std::make_shared<std::vector<std::uint8_t>>(
            frame.data);
        updateStream(asid, vpn);
        deliverFetch(asid, vpn, host_paddr, kArenaHitNs,
                     std::move(image), start, std::move(done));
        return;
    }

    const BackendModel &model = modelOf(asid);
    const Tick latency = model.transferNs(cfg_.pageBytes);
    const auto *stored = images_.fetch(asid, vpn);
    if (stored == nullptr) {
        // Never-stored page: the request still travels to the backend
        // before the node reports "no image" (zero-fill), matching
        // the flat store's charge for comparability across modes.
        ++zeroFills_;
        deliverFetch(asid, vpn, host_paddr, latency, nullptr, start,
                     std::move(done));
        return;
    }
    ++backendFetches_;
    auto image =
        std::make_shared<std::vector<std::uint8_t>>(*stored);
    updateStream(asid, vpn);
    issuePrefetches(asid, vpn);
    deliverFetch(asid, vpn, host_paddr, latency, std::move(image),
                 start, std::move(done));
}

void
MemoryTier::deliverFetch(
    Asid asid, std::uint64_t vpn, Addr host_paddr, Tick latency,
    std::shared_ptr<std::vector<std::uint8_t>> image, Tick span_start,
    FetchDone done)
{
    const auto finish = [this, asid, vpn, span_start,
                         image, done = std::move(done)] {
        trace(obs::EventKind::TierFetch, span_start,
              events_.now() - span_start, asid, vpn,
              image ? 0 : 1);
        done(image ? image.get() : nullptr);
    };
    if (dma_ && image) {
        // Stream the page to the host frame over the modeled bus
        // (contending with miss traffic) after the backend/arena
        // latency has elapsed.
        events_.scheduleIn(
            latency,
            [this, host_paddr, image, finish] {
                dma_->write(host_paddr, *image, finish);
            },
            "tier-fetch");
        return;
    }
    events_.scheduleIn(latency, finish, "tier-fetch");
}

// --------------------------------------------------------------------
// Page-out path
// --------------------------------------------------------------------

void
MemoryTier::storePage(Asid asid, std::uint64_t vpn, Addr host_paddr,
                      std::vector<std::uint8_t> data, Done done)
{
    if (data.size() != cfg_.pageBytes)
        panic("memory tier: page-out of ", data.size(),
              " bytes (expected ", cfg_.pageBytes, ")");
    if (cfg_.mode == TierMode::Mirror) {
        storeMirror(asid, vpn, std::move(data), std::move(done));
        return;
    }

    const Tick start = events_.now();
    const auto accept = [this, asid, vpn, start,
                         done = std::move(done)](
                            std::vector<std::uint8_t> image) {
        if (arena_->lookup(asid, vpn) || arena_->hasFree() ||
            arena_->cleanCount() > 0) {
            acceptStore(asid, vpn, std::move(image));
            trace(obs::EventKind::TierStore, start,
                  events_.now() - start, asid, vpn);
            done();
            return;
        }
        // Arena exhausted (every frame dirty, drains in flight): the
        // page-out — and with it the miss path — genuinely stalls.
        ++storeStalls_;
        pending_.push_back(PendingStore{asid, vpn, std::move(image),
                                        std::move(done),
                                        events_.now()});
        kickReclaim();
    };

    if (dma_) {
        // Model the host-frame -> node transfer on the bus; the image
        // content was snapshotted by the caller under the flush
        // bracket (the frame may be reallocated before the DMA
        // completes), so the returned bytes are only timing.
        dma_->read(host_paddr, cfg_.pageBytes,
                   [accept, data = std::move(data)](
                       std::vector<std::uint8_t>) mutable {
                       accept(std::move(data));
                   });
        return;
    }
    events_.scheduleIn(kArenaAcceptNs,
                       [accept, data = std::move(data)]() mutable {
                           accept(std::move(data));
                       },
                       "tier-store");
}

void
MemoryTier::acceptStore(Asid asid, std::uint64_t vpn,
                        std::vector<std::uint8_t> data)
{
    ++storesAccepted_;
    const auto slot = arena_->lookup(asid, vpn);
    if (slot) {
        // Double page-out of the same <asid, vpn> (e.g. paged in and
        // evicted again before the first drain ran): overwrite in
        // place, bumping the dirty epoch so an in-flight drain of the
        // old image cannot mark the new one clean.
        arena_->overwrite(*slot, std::move(data));
    } else {
        if (!arena_->hasFree()) {
            const auto victim = arena_->reclaimOldestClean();
            if (!victim)
                panic("memory tier: acceptStore with no capacity");
            ++cleanEvictions_;
        }
        arena_->insert(asid, vpn, std::move(data), true);
    }
    arenaPeak_.set(arena_->peakUsed());
    if (arena_->dirtyCount() >= dirtyHighWater())
        kickReclaim();
}

// --------------------------------------------------------------------
// Reclaim engine
// --------------------------------------------------------------------

void
MemoryTier::drainNow()
{
    if (cfg_.mode == TierMode::Mirror)
        return;
    kickReclaim();
}

void
MemoryTier::kickReclaim()
{
    if (draining_)
        return;
    draining_ = true;
    startBatch();
}

void
MemoryTier::startBatch()
{
    drainQueueDepth_.sample(
        static_cast<double>(arena_->drainQueueDepth()));
    const auto batch = arena_->takeDirtyBatch(cfg_.reclaimBatch);
    if (batch.empty()) {
        draining_ = false;
        return;
    }
    ++drainBatches_;
    batchSizes_.sample(static_cast<double>(batch.size()));

    // Pipelined issue: the first page pays the backend's full request
    // cost; follow-up pages stream behind it, spaced by the link
    // bandwidth (or the engine's minimum pipeline interval).
    Tick when = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const ArenaFrame &frame = arena_->frame(batch[i]);
        const BackendModel &model = modelOf(frame.asid);
        const Tick cost =
            i == 0 ? model.transferNs(cfg_.pageBytes)
                   : std::max(model.streamNs(cfg_.pageBytes),
                              kPipelineIntervalNs);
        when += cost;
        DrainItem item{batch[i], frame.stamp,    frame.dirtyEpoch,
                       frame.asid, frame.vpn,
                       spaceGen(frame.asid),     frame.data};
        const bool last = i + 1 == batch.size();
        const Tick issued_at = events_.now();
        events_.scheduleIn(
            when,
            [this, item = std::move(item), issued_at, cost, last] {
                completeDrain(item, issued_at, cost, last);
            },
            "tier-drain");
    }
}

void
MemoryTier::completeDrain(const DrainItem &item, Tick issued_at,
                          Tick cost, bool last)
{
    if (spaceGen(item.asid) == item.spaceGen) {
        images_.store(item.asid, item.vpn, item.data);
        ++pagesDrained_;
        trace(obs::EventKind::TierEvict, issued_at,
              events_.now() - issued_at, item.asid, item.vpn,
              static_cast<std::uint8_t>(backendOf(item.asid)));
    }
    // The slot is only cleaned if it still holds the very image this
    // drain captured: dropSpace or reuse bumps the stamp, a newer
    // page-out of the same page bumps the dirty epoch — either way
    // the frame stays as it is (dirty data must not be lost).
    const ArenaFrame &frame = arena_->frame(item.slot);
    if (frame.valid && frame.stamp == item.stamp &&
        frame.dirtyEpoch == item.dirtyEpoch && frame.dirty) {
        arena_->markClean(item.slot);
    }
    servicePending();
    (void)cost;
    if (last)
        startBatch();
}

void
MemoryTier::servicePending()
{
    while (!pending_.empty() &&
           (arena_->hasFree() || arena_->cleanCount() > 0)) {
        PendingStore req = std::move(pending_.front());
        pending_.pop_front();
        storeStallNs_ +=
            static_cast<double>(events_.now() - req.enqueuedAt);
        acceptStore(req.asid, req.vpn, std::move(req.data));
        trace(obs::EventKind::TierStore, req.enqueuedAt,
              events_.now() - req.enqueuedAt, req.asid, req.vpn, 1);
        req.done();
    }
}

// --------------------------------------------------------------------
// Prefetcher
// --------------------------------------------------------------------

void
MemoryTier::updateStream(Asid asid, std::uint64_t vpn)
{
    Stream &s = streams_[asid];
    if (s.streak > 0 && vpn == s.lastVpn + 1)
        ++s.streak;
    else
        s.streak = 1;
    s.lastVpn = vpn;
}

void
MemoryTier::issuePrefetches(Asid asid, std::uint64_t vpn)
{
    if (cfg_.prefetchDepth == 0)
        return;
    const Stream &s = streams_[asid];
    if (s.streak < cfg_.prefetchMinStreak)
        return;
    const std::uint64_t gen = s.gen;
    const BackendModel &model = modelOf(asid);
    for (std::uint32_t d = 1; d <= cfg_.prefetchDepth; ++d) {
        const std::uint64_t next = vpn + d;
        if (arena_->lookup(asid, next))
            continue;
        if (!images_.contains(asid, next))
            break; // stream ran off the stored region
        if (!arena_->hasFree() && arena_->cleanCount() == 0)
            break; // no room, don't queue speculative work
        // Pull the image now (counts the one real backend fetch) and
        // install it once the backend transfer has elapsed — unless
        // the stream was cancelled or the space dropped meanwhile.
        const auto *stored = images_.fetch(asid, next);
        auto image =
            std::make_shared<std::vector<std::uint8_t>>(*stored);
        ++prefetchIssued_;
        const Tick issued_at = events_.now();
        const std::uint64_t sgen = spaceGen(asid);
        events_.scheduleIn(
            model.transferNs(cfg_.pageBytes) +
                d * kPipelineIntervalNs,
            [this, asid, next, gen, sgen, image, issued_at] {
                const Stream &cur = streams_[asid];
                if (cur.gen != gen || spaceGen(asid) != sgen) {
                    ++prefetchCancelled_;
                    return;
                }
                if (arena_->lookup(asid, next))
                    return; // demand path beat us to it
                if (!arena_->hasFree()) {
                    if (arena_->cleanCount() == 0)
                        return; // arena filled up with dirty work
                    arena_->reclaimOldestClean();
                    ++cleanEvictions_;
                }
                arena_->insert(asid, next, *image, false, true);
                arenaPeak_.set(arena_->peakUsed());
                trace(obs::EventKind::TierPrefetch, issued_at, 0,
                      asid, next);
            },
            "tier-prefetch");
    }
}

void
MemoryTier::cancelPrefetch(Asid asid)
{
    const auto it = streams_.find(asid);
    if (it == streams_.end())
        return;
    ++it->second.gen;
    it->second.streak = 0;
}

// --------------------------------------------------------------------
// Space teardown
// --------------------------------------------------------------------

void
MemoryTier::dropSpace(Asid asid)
{
    ++spaceGen_[asid];
    images_.dropSpace(asid);
    cancelPrefetch(asid);
    if (!arena_)
        return;
    for (const std::uint32_t slot : arena_->slotsOf(asid))
        arena_->release(slot);
    // Parked page-outs of the dropped space will never find a home
    // worth keeping; accept-and-forget so their requesters unblock.
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->asid == asid) {
            storeStallNs_ += static_cast<double>(events_.now() -
                                                 it->enqueuedAt);
            it->done();
            it = pending_.erase(it);
        } else {
            ++it;
        }
    }
    servicePending();
}

// --------------------------------------------------------------------
// Stats / trace
// --------------------------------------------------------------------

void
MemoryTier::trace(obs::EventKind kind, Tick at, Tick dur, Asid asid,
                  std::uint64_t vpn, std::uint8_t aux)
{
    if (tracer_ == nullptr)
        return;
    obs::TraceEvent event;
    event.at = at;
    event.addr = vpn * cfg_.pageBytes;
    event.arg0 = dur;
    event.arg1 = vpn;
    event.master = asid;
    event.track = track_;
    event.kind = kind;
    event.aux = aux;
    tracer_->record(event);
}

void
MemoryTier::registerStats(StatGroup &group) const
{
    group.addCounter("image_stores", "page images written durably",
                     images_.stores());
    group.addCounter("image_fetches", "page images read back",
                     images_.fetches());
    group.addCounter("arena_hits", "page-ins served from the arena",
                     arenaHits_);
    group.addCounter("backend_fetches",
                     "page-ins that went to the backend",
                     backendFetches_);
    group.addCounter("zero_fills", "page-ins of never-stored pages",
                     zeroFills_);
    group.addCounter("stores_accepted",
                     "page-outs accepted into the arena",
                     storesAccepted_);
    group.addCounter("store_stalls",
                     "page-outs parked on an exhausted arena",
                     storeStalls_);
    group.addScalar("store_stall_ns",
                    "total ns page-outs spent parked", storeStallNs_);
    group.addCounter("drain_batches", "reclaim batches issued",
                     drainBatches_);
    group.addCounter("pages_drained",
                     "dirty pages written back to the backend",
                     pagesDrained_);
    group.addCounter("clean_evictions",
                     "clean arena frames reclaimed for new pages",
                     cleanEvictions_);
    group.addCounter("prefetches_issued",
                     "stream prefetches issued to the backend",
                     prefetchIssued_);
    group.addCounter("prefetch_hits",
                     "page-ins served by a prefetched frame",
                     prefetchHits_);
    group.addCounter("prefetches_cancelled",
                     "in-flight prefetches dropped by cancellation",
                     prefetchCancelled_);
    group.addScalar("arena_peak", "high-water mark of arena frames",
                    arenaPeak_);
    group.addHistogram("batch_sizes", "drain batch sizes",
                       batchSizes_);
    group.addHistogram("drain_queue_depth",
                       "dirty frames queued when a batch starts",
                       drainQueueDepth_);
}

} // namespace vmp::backing
