#include "net/server.hpp"

#include <utility>

#include "core/method_registry.hpp"
#include "core/model_pack.hpp"
#include "net/message.hpp"

namespace csm::net {

FleetServer::FleetServer(std::unique_ptr<Listener> listener,
                         core::StreamEngine& engine,
                         FleetServerOptions options)
    : listener_(std::move(listener)),
      engine_(engine),
      options_(std::move(options)) {
  if (!listener_) {
    throw std::invalid_argument("FleetServer: listener is null");
  }
}

FleetServer::~FleetServer() { listener_->close(); }

void FleetServer::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    poll_once(options_.poll_timeout_ms);
  }
}

std::size_t FleetServer::node_index(const std::string& name) const {
  return lookup(name);
}

std::size_t FleetServer::lookup(std::string_view node) const {
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    throw std::invalid_argument("unknown node \"" + std::string(node) + "\"");
  }
  return it->second;
}

void FleetServer::accept_pending() {
  while (std::unique_ptr<Connection> conn = listener_->accept()) {
    clients_.push_back(
        std::make_unique<Client>(std::move(conn),
                                 options_.max_frame_payload));
  }
}

bool FleetServer::poll_once(int timeout_ms) {
  std::vector<Connection*> conns;
  conns.reserve(clients_.size());
  for (const auto& c : clients_) conns.push_back(c->conn.get());
  listener_->wait(conns, timeout_ms);

  const std::size_t before = clients_.size();
  const std::uint64_t frames_before = frames_;
  accept_pending();

  bool closed_any = false;
  for (auto& client : clients_) {
    if (!service(*client)) closed_any = true;
  }
  if (closed_any) {
    std::erase_if(clients_, [](const std::unique_ptr<Client>& c) {
      return !c->conn->is_open();
    });
  }
  return clients_.size() != before || frames_ != frames_before || closed_any;
}

bool FleetServer::service(Client& client) {
  bool eof = false;
  while (client.conn->is_open() && !client.closing) {
    const std::size_t n =
        client.conn->read_some(client.reader.prepare(kReadSize));
    if (n == 0) {
      eof = !client.conn->is_open();
      break;
    }
    client.reader.commit(n);
    try {
      while (std::optional<FrameView> frame = client.reader.next_view()) {
        handle_frame(client, *frame);
      }
    } catch (const FrameError& e) {
      // The byte stream is desynchronised: one parting diagnostic, then
      // hang up.
      reply(client, FrameType::kError, "", encode_error_text(e.what()));
      client.closing = true;
    }
  }
  if (eof && !client.reader.at_frame_boundary()) {
    // Disconnect mid-frame: nothing to answer (the peer is gone), but the
    // truncated tail must not be mistaken for a clean close.
    client.closing = true;
  }
  flush(client);
  if (client.closing && client.out_head == client.out.size()) {
    client.conn->close();
  }
  if (eof && client.out_head == client.out.size()) {
    client.conn->close();
  }
  return client.conn->is_open();
}

void FleetServer::reply(Client& client, FrameType type, std::string_view node,
                        std::span<const std::uint8_t> payload) {
  append_frame(client.out, type, node, payload);
}

void FleetServer::flush(Client& client) {
  while (client.out_head < client.out.size() && client.conn->is_open()) {
    const std::size_t n = client.conn->write_some(
        std::span(client.out).subspan(client.out_head));
    if (n == 0) break;  // Would-block: retry on the next iteration.
    client.out_head += n;
  }
  if (client.out_head == client.out.size() && !client.out.empty()) {
    client.out.clear();
    client.out_head = 0;
  }
}

void FleetServer::handle_frame(Client& client, const FrameView& frame) {
  ++frames_;
  try {
    switch (frame.type) {
      case FrameType::kSampleBatch: {
        const common::MatrixView columns =
            decode_sample_columns(frame.payload, client.samples);
        engine_.ingest(lookup(frame.node), columns);
        break;  // One-way: no ack on success.
      }
      case FrameType::kNodeAdd:
        handle_node_add(client, frame);
        break;
      case FrameType::kNodeRemove: {
        const std::size_t index = lookup(frame.node);
        engine_.remove_node(index);
        nodes_.erase(nodes_.find(frame.node));
        reply(client, FrameType::kOk, frame.node, encode_ok(index));
        break;
      }
      case FrameType::kDrainRequest: {
        const std::size_t index = lookup(frame.node);
        DrainResponse response;
        response.signatures = engine_.drain(index);
        response.dropped = engine_.dropped(index);
        reply(client, FrameType::kDrainResponse, frame.node,
              encode_drain_response(response));
        break;
      }
      case FrameType::kStatsRequest: {
        reply(client, FrameType::kStatsResponse, "",
              encode_stats_response(make_stats_response(
                  engine_.stats(), options_.server_version)));
        break;
      }
      case FrameType::kNodeStatsRequest: {
        NodeStatsResponse response;
        response.nodes = engine_.node_stats();
        reply(client, FrameType::kNodeStatsResponse, "",
              encode_node_stats_response(response));
        break;
      }
      default:
        throw std::invalid_argument(
            std::string("unexpected ") + frame_type_name(frame.type) +
            " frame: clients send requests, not responses");
    }
  } catch (const std::exception& e) {
    // Semantic failure in a well-formed frame: answer and keep serving.
    reply(client, FrameType::kError, frame.node, encode_error_text(e.what()));
  }
}

void FleetServer::handle_node_add(Client& client, const FrameView& frame) {
  if (frame.node.empty()) {
    throw std::invalid_argument("node-add: empty node name");
  }
  std::string name(frame.node);
  if (const auto it = nodes_.find(name); it != nodes_.end()) {
    throw std::invalid_argument("node-add: node \"" + name +
                                "\" already exists (index " +
                                std::to_string(it->second) + ")");
  }
  const NodeAdd msg = decode_node_add(frame.payload);
  if (options_.registry == nullptr) {
    throw std::invalid_argument(
        "node-add: this server has no method registry");
  }
  std::shared_ptr<const core::SignatureMethod> method;
  if (msg.source == NodeAddSource::kInlineRecord) {
    method = options_.registry->decode(msg.record);
  } else {
    if (options_.pack == nullptr) {
      throw std::invalid_argument(
          "node-add: no model pack is loaded, pack id \"" + msg.pack_id +
          "\" cannot be resolved");
    }
    method = options_.pack->load(msg.pack_id, *options_.registry);
  }
  const std::size_t index =
      engine_.add_node(name, std::move(method), msg.n_sensors);
  const auto added = nodes_.emplace(std::move(name), index).first;
  if (options_.on_node_add) {
    options_.on_node_add(index, added->first, msg.n_sensors);
  }
  reply(client, FrameType::kOk, frame.node, encode_ok(index));
}

}  // namespace csm::net
