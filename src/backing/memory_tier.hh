/**
 * @file
 * The modeled memory-tier node (ROADMAP direction 2): what used to be
 * a passive map with a flat latency stamp becomes a discrete-event
 * node with a bounded FrameArena of local frames, an asynchronous
 * reclaim engine that drains dirty frames to a per-space backend in
 * pipelined batches, and a sequential-stream prefetcher.
 *
 * Two modes:
 *
 *  - Mirror: byte-for-byte the old passive BackingStore timing — one
 *    flat-latency event per fetch/store, named "page-in"/"page-out",
 *    with the image plane accessed inside the event. A simulation
 *    configured this way is bit-identical to the pre-tier code
 *    (regression-gated by bench_memtier).
 *
 *  - Async: page-outs complete as soon as the node accepts the page
 *    into its arena (a DMA-speed transfer, not a backend-speed one);
 *    dedicated reclaim engines later drain dirty frames to the
 *    backend in batches, pipelining the per-page fixed cost. The miss
 *    path only stalls on eviction when the arena is truly exhausted
 *    (every frame dirty and in flight). Page-ins hit the arena when a
 *    prefetched or still-resident image is present.
 *
 * The tier owns the durable PageStore image plane; recovery restores
 * from it. An optional DmaDevice routes page transfers over a modeled
 * bus so tier traffic contends with miss traffic.
 */

#ifndef VMP_BACKING_MEMORY_TIER_HH
#define VMP_BACKING_MEMORY_TIER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "backing/backend.hh"
#include "backing/frame_arena.hh"
#include "backing/page_store.hh"
#include "mem/dma.hh"
#include "obs/event_tracer.hh"
#include "sim/event.hh"
#include "sim/stats.hh"

namespace vmp::backing
{

/** Tier behavior selector. */
enum class TierMode : std::uint8_t
{
    /** Reproduce the legacy passive store exactly (flat latency). */
    Mirror = 0,
    /** Arena + async reclaim pipeline + prefetch. */
    Async,
};

/** Node-side cost of accepting one page-out into the arena when no
 *  DMA device is attached (DMA models the transfer itself). */
inline constexpr Tick kArenaAcceptNs = usec(2);
/** Node-side cost of serving a page-in from the arena. */
inline constexpr Tick kArenaHitNs = usec(2);
/** Minimum spacing of pipelined pages within a drain batch. */
inline constexpr Tick kPipelineIntervalNs = usec(20);

/** Memory-tier configuration knobs. */
struct TierConfig
{
    TierMode mode = TierMode::Mirror;
    /** Flat per-page latency of the Disk backend (and the entire
     *  Mirror mode). */
    Tick diskLatencyNs = usec(500);
    /** Page-image granule. */
    std::uint32_t pageBytes = kDefaultPageBytes;
    /** Node-local frames in the arena (Async mode). */
    std::uint32_t arenaFrames = 64;
    /** Dirty frames drained per reclaim batch. */
    std::uint32_t reclaimBatch = 8;
    /** Start draining once this many frames are dirty
     *  (0 = arenaFrames / 2). */
    std::uint32_t dirtyHighWater = 0;
    /** Backend of address spaces with no explicit setBackend(). */
    BackendKind defaultBackend = BackendKind::Disk;
    /** Pages prefetched ahead of a detected stream (0 = off). */
    std::uint32_t prefetchDepth = 0;
    /** Consecutive-vpn demand fetches before the stream is trusted. */
    std::uint32_t prefetchMinStreak = 2;
};

/** The memory-tier node. */
class MemoryTier
{
  public:
    using Done = std::function<void()>;
    /**
     * Page-in completion. The image pointer is valid only for the
     * duration of the callback (nullptr = never-stored page, i.e.
     * zero-fill).
     */
    using FetchDone =
        std::function<void(const std::vector<std::uint8_t> *)>;

    MemoryTier(EventQueue &events, const TierConfig &config = {});

    const TierConfig &config() const { return cfg_; }

    /** Durable image plane (recovery restores from this). */
    PageStore &images() { return images_; }
    const PageStore &images() const { return images_; }

    /** Node-local frame pool; null in Mirror mode. */
    FrameArena *arena() { return arena_.get(); }
    const FrameArena *arena() const { return arena_.get(); }

    /** Select the backend medium for one address space. */
    void setBackend(Asid asid, BackendKind kind);
    BackendKind backendOf(Asid asid) const;

    /**
     * Route page transfers through a DMA engine on @p bus so they
     * contend with miss traffic (Async mode only; the legacy path —
     * and Mirror mode — bypasses the bus model).
     */
    void attachDma(mem::VmeBus &bus, std::uint32_t master_id);

    /** Attach the observability tracer (null = off, zero-cost). */
    void
    setTracer(obs::EventTracer *tracer, std::uint16_t track)
    {
        tracer_ = tracer;
        track_ = track;
    }

    /**
     * Request the image of <asid, vpn> for a page-in targeting host
     * frame @p host_paddr. Completion latency depends on mode, arena
     * residency and backend.
     */
    void fetchPage(Asid asid, std::uint64_t vpn, Addr host_paddr,
                   FetchDone done);

    /**
     * Hand a page image to the tier for a page-out of host frame
     * @p host_paddr. In Async mode @p done fires once the node has
     * *accepted* the page (arena slot taken); the backend write-back
     * happens later, off the miss path — unless the arena is
     * exhausted, in which case the request stalls until a drain frees
     * capacity (counted in storeStalls/storeStallNs).
     */
    void storePage(Asid asid, std::uint64_t vpn, Addr host_paddr,
                   std::vector<std::uint8_t> data, Done done);

    /** Drop all trace of an address space (images, arena frames,
     *  queued stores, prefetch streams). In-flight drains for the
     *  space are cancelled by generation. */
    void dropSpace(Asid asid);

    /** Cancel outstanding prefetches and forget the stream state of
     *  @p asid (context-switch hook). */
    void cancelPrefetch(Asid asid);

    /** Kick the reclaim engine regardless of the high-water mark
     *  (pre-drain before a planned burst; also used by tests). */
    void drainNow();

    /** True while a drain batch is in flight. */
    bool draining() const { return draining_; }
    /** Page-outs parked waiting for arena capacity. */
    std::size_t pendingStores() const { return pending_.size(); }

    // --- statistics ---
    const Counter &arenaHits() const { return arenaHits_; }
    const Counter &backendFetches() const { return backendFetches_; }
    const Counter &zeroFills() const { return zeroFills_; }
    const Counter &storesAccepted() const { return storesAccepted_; }
    const Counter &storeStalls() const { return storeStalls_; }
    const Counter &drainBatches() const { return drainBatches_; }
    const Counter &pagesDrained() const { return pagesDrained_; }
    const Counter &cleanEvictions() const { return cleanEvictions_; }
    const Counter &prefetchesIssued() const { return prefetchIssued_; }
    const Counter &prefetchHits() const { return prefetchHits_; }
    const Counter &prefetchesCancelled() const
    {
        return prefetchCancelled_;
    }
    /** Total ns page-out requests spent parked on a full arena. */
    double storeStallNs() const { return storeStallNs_.value(); }
    void registerStats(StatGroup &group) const;

  private:
    struct PendingStore
    {
        Asid asid;
        std::uint64_t vpn;
        std::vector<std::uint8_t> data;
        Done done;
        Tick enqueuedAt;
    };

    /** One page of an in-flight drain batch. */
    struct DrainItem
    {
        std::uint32_t slot;
        std::uint64_t stamp;
        std::uint64_t dirtyEpoch;
        Asid asid;
        std::uint64_t vpn;
        std::uint64_t spaceGen;
        std::vector<std::uint8_t> data;
    };

    const BackendModel &modelOf(Asid asid) const;
    std::uint32_t dirtyHighWater() const;
    std::uint64_t spaceGen(Asid asid) const;

    void fetchMirror(Asid asid, std::uint64_t vpn, FetchDone done);
    void storeMirror(Asid asid, std::uint64_t vpn,
                     std::vector<std::uint8_t> data, Done done);
    /** Serve a ready image to the requester (optional DMA leg). */
    void deliverFetch(Asid asid, std::uint64_t vpn, Addr host_paddr,
                      Tick latency,
                      std::shared_ptr<std::vector<std::uint8_t>> image,
                      Tick span_start, FetchDone done);
    /** Install an accepted page-out into the arena. */
    void acceptStore(Asid asid, std::uint64_t vpn,
                     std::vector<std::uint8_t> data);
    void kickReclaim();
    void startBatch();
    void completeDrain(const DrainItem &item, Tick issued_at,
                       Tick cost, bool last);
    void servicePending();
    void updateStream(Asid asid, std::uint64_t vpn);
    void issuePrefetches(Asid asid, std::uint64_t vpn);
    void trace(obs::EventKind kind, Tick at, Tick dur, Asid asid,
               std::uint64_t vpn, std::uint8_t aux = 0);

    EventQueue &events_;
    TierConfig cfg_;
    PageStore images_;
    std::unique_ptr<FrameArena> arena_;
    std::unique_ptr<mem::DmaDevice> dma_;
    std::map<Asid, BackendKind> backendOf_;
    BackendModel models_[kBackendKinds];

    bool draining_ = false;
    std::deque<PendingStore> pending_;
    /** Bumped by dropSpace: in-flight drains for older generations
     *  must not resurrect dropped images. */
    std::map<Asid, std::uint64_t> spaceGen_;

    struct Stream
    {
        std::uint64_t lastVpn = 0;
        std::uint32_t streak = 0;
        /** Bumped by cancelPrefetch: stale in-flight prefetches drop. */
        std::uint64_t gen = 0;
    };
    std::map<Asid, Stream> streams_;

    obs::EventTracer *tracer_ = nullptr;
    std::uint16_t track_ = 0;

    Counter arenaHits_;
    Counter backendFetches_;
    Counter zeroFills_;
    Counter storesAccepted_;
    Counter storeStalls_;
    Counter drainBatches_;
    Counter pagesDrained_;
    Counter cleanEvictions_;
    Counter prefetchIssued_;
    Counter prefetchHits_;
    Counter prefetchCancelled_;
    Scalar storeStallNs_;
    Scalar arenaPeak_;
    Histogram batchSizes_{9, 1};
    Histogram drainQueueDepth_{16, 4};
};

} // namespace vmp::backing

#endif // VMP_BACKING_MEMORY_TIER_HH
