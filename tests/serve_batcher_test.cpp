// Tests for the cross-stream DynamicBatcher: flush-on-max-batch, deadline
// flushes under injected time, no starvation for a lone stream, and the
// contract everything above it relies on — labels produced through any
// batching and any thread count are bit-identical to model->predict().

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mvreju/ml/model.hpp"
#include "mvreju/serve/batcher.hpp"
#include "mvreju/util/rng.hpp"

namespace {

using namespace mvreju;

std::vector<float> random_sample(util::Rng& rng, std::size_t n) {
    std::vector<float> sample(n);
    for (float& v : sample) v = static_cast<float>(rng.uniform());
    return sample;
}

serve::DynamicBatcher::Options options_with(int max_batch,
                                            std::uint64_t max_delay_us,
                                            std::size_t threads = 1) {
    serve::DynamicBatcher::Options options;
    options.max_batch = max_batch;
    options.max_delay_us = max_delay_us;
    options.num_threads = threads;
    options.input_shape = {3, 16, 16};
    return options;
}

TEST(ServeBatcherTest, FlushesWhenBatchFills) {
    const ml::Sequential model = ml::make_tiny_lenet(3, 16, 8, 7);
    serve::DynamicBatcher batcher(options_with(4, 1'000'000));
    util::Rng rng(11);

    std::vector<int> labels;
    std::vector<serve::BatchStamp> stamps;
    for (int i = 0; i < 4; ++i) {
        const auto sample = random_sample(rng, batcher.sample_size());
        batcher.submit(&model, sample.data(), /*now_us=*/100,
                       [&](int label, const serve::BatchStamp& stamp) {
                           labels.push_back(label);
                           stamps.push_back(stamp);
                       });
        // Nothing completes until the fourth submit fills the batch; the
        // deadline is far away, so only max_batch can flush.
        if (i < 3) {
            EXPECT_EQ(labels.size(), 0u);
        }
    }
    ASSERT_EQ(labels.size(), 4u);
    EXPECT_EQ(batcher.pending(), 0u);
    for (const auto& stamp : stamps) {
        EXPECT_EQ(stamp.seq, 1u);
        EXPECT_EQ(stamp.size, 4u);
    }
}

TEST(ServeBatcherTest, DeadlineFlushUnderInjectedTime) {
    const ml::Sequential model = ml::make_tiny_lenet(3, 16, 8, 7);
    serve::DynamicBatcher batcher(options_with(64, 2000));
    util::Rng rng(12);

    int completions = 0;
    const auto sample = random_sample(rng, batcher.sample_size());
    batcher.submit(&model, sample.data(), /*now_us=*/1000,
                   [&](int, const serve::BatchStamp&) { ++completions; });
    ASSERT_TRUE(batcher.next_deadline_us().has_value());
    EXPECT_EQ(*batcher.next_deadline_us(), 3000u);

    // Before the deadline nothing moves; at the deadline the batch flushes.
    EXPECT_EQ(batcher.flush_due(2999), 0u);
    EXPECT_EQ(completions, 0);
    EXPECT_EQ(batcher.flush_due(3000), 1u);
    EXPECT_EQ(completions, 1);
    EXPECT_FALSE(batcher.next_deadline_us().has_value());
}

TEST(ServeBatcherTest, LoneStreamIsNeverStarved) {
    // A single stream on an otherwise idle server: every frame must complete
    // by its max-delay deadline even though the batch never fills.
    const ml::Sequential model = ml::make_tiny_lenet(3, 16, 8, 7);
    serve::DynamicBatcher batcher(options_with(64, 500));
    util::Rng rng(13);

    std::uint64_t now = 0;
    for (int frame = 0; frame < 20; ++frame) {
        const auto sample = random_sample(rng, batcher.sample_size());
        bool done = false;
        batcher.submit(&model, sample.data(), now,
                       [&](int, const serve::BatchStamp& stamp) {
                           done = true;
                           EXPECT_EQ(stamp.size, 1u);
                       });
        const auto deadline = batcher.next_deadline_us();
        ASSERT_TRUE(deadline.has_value());
        EXPECT_EQ(*deadline, now + 500);
        batcher.flush_due(*deadline);
        EXPECT_TRUE(done) << "frame " << frame << " starved past its deadline";
        now += 1000;  // next frame arrives after the previous one completed
    }
}

TEST(ServeBatcherTest, BatchedLabelsBitIdenticalToPredict) {
    // The serving layer's correctness hinge: however samples are batched
    // and however many threads flush them, every label equals the
    // unbatched model->predict() for that sample.
    const std::vector<ml::Sequential> models = {
        ml::make_tiny_lenet(3, 16, 8, 7),
        ml::make_mini_alexnet(3, 16, 8, 8),
        ml::make_micro_resnet(3, 16, 8, 9),
    };
    util::Rng rng(14);
    constexpr int kSamples = 48;

    std::vector<std::vector<float>> samples;
    std::vector<const ml::Sequential*> targets;
    std::vector<int> expected;
    for (int i = 0; i < kSamples; ++i) {
        samples.push_back(random_sample(rng, 3 * 16 * 16));
        const auto* model = &models[static_cast<std::size_t>(i) % models.size()];
        targets.push_back(model);
        expected.push_back(model->predict(
            ml::Tensor({3, 16, 16}, samples.back())));
    }

    for (const int max_batch : {1, 3, 16, 64}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            serve::DynamicBatcher batcher(options_with(max_batch, 10, threads));
            std::vector<std::optional<int>> got(kSamples);
            for (int i = 0; i < kSamples; ++i)
                batcher.submit(targets[static_cast<std::size_t>(i)],
                               samples[static_cast<std::size_t>(i)].data(),
                               /*now_us=*/static_cast<std::uint64_t>(i),
                               [&got, i](int label, const serve::BatchStamp&) {
                                   got[static_cast<std::size_t>(i)] = label;
                               });
            batcher.flush_all();
            for (int i = 0; i < kSamples; ++i) {
                ASSERT_TRUE(got[static_cast<std::size_t>(i)].has_value());
                EXPECT_EQ(*got[static_cast<std::size_t>(i)],
                          expected[static_cast<std::size_t>(i)])
                    << "sample " << i << " max_batch " << max_batch
                    << " threads " << threads;
            }
        }
    }
}

TEST(ServeBatcherTest, CompletionMayResubmit) {
    // A session's completion often submits the stream's next frame; the
    // flush must tolerate re-entrant submits into the queue being flushed.
    const ml::Sequential model = ml::make_tiny_lenet(3, 16, 8, 7);
    serve::DynamicBatcher batcher(options_with(2, 1'000'000));
    util::Rng rng(15);
    const auto sample = random_sample(rng, batcher.sample_size());

    int second_wave = 0;
    auto resubmit = [&](int, const serve::BatchStamp&) {
        batcher.submit(&model, sample.data(), 0,
                       [&](int, const serve::BatchStamp&) { ++second_wave; });
    };
    batcher.submit(&model, sample.data(), 0, resubmit);
    batcher.submit(&model, sample.data(), 0, resubmit);  // fills batch of 2
    // The two re-entrant submits filled a second batch of 2, which flushed
    // itself in turn.
    EXPECT_EQ(second_wave, 2);
    EXPECT_EQ(batcher.pending(), 0u);
}

}  // namespace
